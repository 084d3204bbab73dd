package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Second != 320000 {
		t.Fatalf("Second = %d, want 320000 symbols", Second)
	}
	if Millisecond*1000 != Second {
		t.Fatalf("Millisecond*1000 = %d, want %d", Millisecond*1000, Second)
	}
	if got := FromSeconds(2.5); got != 800000 {
		t.Fatalf("FromSeconds(2.5) = %d, want 800000", got)
	}
	if got := FromMilliseconds(2.5); got != 800 {
		t.Fatalf("FromMilliseconds(2.5) = %d, want 800 (one frame)", got)
	}
	if got := Time(800).Milliseconds(); got != 2.5 {
		t.Fatalf("800 ticks = %vms, want 2.5ms", got)
	}
	if got := Time(320000).Seconds(); got != 1.0 {
		t.Fatalf("320000 ticks = %vs, want 1s", got)
	}
}

func TestTimeString(t *testing.T) {
	if s := Time(800).String(); s != "2.500ms" {
		t.Fatalf("String = %q", s)
	}
}

func TestScheduleEveryFixedPeriod(t *testing.T) {
	e := NewEngine()
	var fires []Time
	e.ScheduleEvery(5, func(eng *Engine) Time {
		fires = append(fires, eng.Now())
		if len(fires) == 4 {
			return -1 // stop from within
		}
		return 10
	})
	e.Run()
	want := []Time{5, 15, 25, 35}
	if len(fires) != len(want) {
		t.Fatalf("fired %d times, want %d", len(fires), len(want))
	}
	for i, at := range want {
		if fires[i] != at {
			t.Fatalf("firing %d at %v, want %v", i, fires[i], at)
		}
	}
}

func TestScheduleEveryVariablePeriod(t *testing.T) {
	// Variable cadence, like RMAV's variable-length frames.
	e := NewEngine()
	delays := []Time{3, 7, 1}
	i := 0
	var fires []Time
	e.ScheduleEvery(0, func(eng *Engine) Time {
		fires = append(fires, eng.Now())
		if i >= len(delays) {
			return -1
		}
		d := delays[i]
		i++
		return d
	})
	e.Run()
	want := []Time{0, 3, 10, 11}
	if len(fires) != len(want) {
		t.Fatalf("fired at %v, want %v", fires, want)
	}
	for j := range want {
		if fires[j] != want[j] {
			t.Fatalf("fired at %v, want %v", fires, want)
		}
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestEngineNilStepPanics(t *testing.T) {
	mustPanic(t, "nil step", func() { NewEngine().ScheduleEvery(0, nil) })
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleEvery(10, func(*Engine) Time { return -1 })
	e.Run()
	mustPanic(t, "start before now", func() {
		e.ScheduleEvery(5, func(*Engine) Time { return -1 })
	})
}

// The frame clock holds one recurrence: a second ScheduleEvery, from
// outside or from within the running step, is a programming error.
func TestEngineSecondRecurrencePanics(t *testing.T) {
	stop := func(*Engine) Time { return -1 }
	e := NewEngine()
	e.ScheduleEvery(0, stop)
	mustPanic(t, "second ScheduleEvery while pending", func() { e.ScheduleEvery(0, stop) })

	e = NewEngine()
	e.ScheduleEvery(0, func(eng *Engine) Time {
		eng.ScheduleEvery(eng.Now(), stop)
		return -1
	})
	mustPanic(t, "ScheduleEvery from within the step", e.Run)
}

// Reset must leave the engine equivalent to a fresh one: the same firing
// times, clock and count, whether the previous recurrence ran to its end
// or was still pending.
func TestEngineResetBehavesLikeFresh(t *testing.T) {
	script := func(e *Engine) []Time {
		delays := []Time{800, 0, 1200, 800}
		var fires []Time
		e.ScheduleEvery(e.Now()+3, func(eng *Engine) Time {
			fires = append(fires, eng.Now())
			if len(fires) > len(delays) {
				return -1
			}
			return delays[len(fires)-1]
		})
		e.Run()
		return fires
	}
	fresh := script(NewEngine())

	e := NewEngine()
	script(e)
	e.ScheduleEvery(e.Now()+50, func(*Engine) Time { return -1 }) // left pending
	e.Reset()
	if e.Now() != 0 || e.Executed() != 0 {
		t.Fatalf("post-Reset state: now=%v executed=%d", e.Now(), e.Executed())
	}
	if reused := script(e); !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("reset engine fired at %v, fresh engine at %v", reused, fresh)
	}
	if e.Now() != fresh[len(fresh)-1] || e.Executed() != uint64(len(fresh)) {
		t.Fatalf("reset engine ends at now=%v executed=%d, want %v and %d",
			e.Now(), e.Executed(), fresh[len(fresh)-1], len(fresh))
	}
}

// Property: under random variable delays (zero included) the clock never
// runs backwards, each firing lands exactly its delay after the previous
// one, and the run ends at the last firing.
func TestEngineClockMonotoneProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		firings := int(n%100) + 1
		want, prev := Time(0), Time(0)
		fired := 0
		ok := true
		e.ScheduleEvery(0, func(eng *Engine) Time {
			if eng.Now() < prev || eng.Now() != want {
				ok = false
			}
			prev = eng.Now()
			if fired++; fired == firings {
				return -1
			}
			d := Time(r.Intn(10))
			want += d
			return d
		})
		e.Run()
		return ok && e.Now() == want && e.Executed() == uint64(firings)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// EngineEvents, the count perfbench reads, must mirror Executed.
func TestEngineObsMirrorsExecuted(t *testing.T) {
	e := NewEngine()
	n := 0
	e.ScheduleEvery(0, func(*Engine) Time {
		if n++; n == 7 {
			return -1
		}
		return 800
	})
	e.Run()
	if got := e.Obs().EngineEvents; got != e.Executed() || got != 7 {
		t.Fatalf("Obs().EngineEvents = %d, Executed = %d, want both 7", got, e.Executed())
	}
}

// A ScheduleEvery+Run cycle with a prebuilt step must not allocate: the
// frame loop of every replication runs exactly this.
func TestEngineSteadyStateAllocationFree(t *testing.T) {
	e := NewEngine()
	n := 0
	step := StepFunc(func(*Engine) Time {
		if n++; n == 64 {
			return -1
		}
		return 800
	})
	cycle := func() {
		n = 0
		e.ScheduleEvery(e.Now(), step)
		e.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("ScheduleEvery+Run allocates %v per cycle, want 0", allocs)
	}
}
