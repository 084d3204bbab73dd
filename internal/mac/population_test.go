package mac_test

// Population-scale tests and benchmarks for the lazy-instantiation path:
// 10⁵- and 10⁶-station cells must fit a hard per-station memory budget
// (TestMillionStationMemoryBudget), and the idle-wake frame path must stay
// allocation-free at 10⁵ stations (TestIdleWakeHotPathAllocs).

import (
	"fmt"
	"runtime"
	"testing"

	"charisma/internal/channel"
	"charisma/internal/mac"
	"charisma/internal/phy"
	"charisma/internal/rng"
	"charisma/internal/sim"
	"charisma/internal/traffic"
)

// idleBudgetBytes is the hard ceiling on resident heap per idle station for
// a deferred (never materialized) population: the 32-byte Station struct,
// its slot in the Stations slab, the stamp/chSync/loc/pos registry slabs,
// the bucket bitsets, and the station's timer-wheel bucket entry. See
// DESIGN.md ("Station memory layout & timer wheel") for the accounting.
const idleBudgetBytes = 64

// parkedLazySystem builds an n-station cell where every station is deferred
// with a common far-future first wake — the cheapest possible population,
// pinning the platform's fixed per-station cost.
func parkedLazySystem(tb testing.TB, n int) (*mac.System, float64) {
	tb.Helper()
	fw := make([]sim.Time, n)
	for i := range fw {
		fw[i] = 1 << 40 // ~decades of simulated time away
	}
	pop := &mac.LazyPopulation{
		FirstWake: fw,
		Materialize: func(slot int) (*traffic.VoiceSource, *traffic.DataSource, *channel.Fading) {
			tb.Fatalf("parked station %d materialized", slot)
			return nil, nil, nil
		},
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	sys, err := mac.NewSystemLazy(mac.DefaultConfig(), phy.NewAdaptive(phy.DefaultParams()), n, rng.New(1), pop)
	if err != nil {
		tb.Fatal(err)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return sys, float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
}

// TestMillionStationMemoryBudget instantiates 10⁵- and 10⁶-station cells
// and holds the measured resident heap of each to idleBudgetBytes per
// station. The 10⁵ cell is the tighter case: fixed per-cell costs spread
// over fewer stations.
func TestMillionStationMemoryBudget(t *testing.T) {
	for _, n := range []int{100_000, 1_000_000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			sys, perStation := parkedLazySystem(t, n)
			t.Logf("%d stations: %.1f B/station resident", n, perStation)
			if perStation > idleBudgetBytes {
				t.Fatalf("resident heap %.1f B/station, budget %d", perStation, idleBudgetBytes)
			}
			// The cell must also be runnable: a frame over a fully parked
			// population touches no station state.
			for f := 0; f < 10; f++ {
				sys.BeginFrame()
				sys.EndFrame(sys.FrameDuration())
			}
			if err := sys.VerifyRegistry(); err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(sys)
		})
	}
}

// BenchmarkIdleCellPopulation pins the population-scaling promise of the
// timer wheel + SoA slab layout: instantiating an idle cell costs O(tens
// of bytes) per station (B/station metric), and the per-frame cost of
// running it idle is population-independent — the 10⁶ row must stay within
// a small constant of the 10⁴ row (ns/frame metric), because a frame
// touches only the wheel's current granule and the (empty) active buckets,
// never the parked population.
func BenchmarkIdleCellPopulation(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sys, perStation := parkedLazySystem(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.BeginFrame()
				sys.EndFrame(sys.FrameDuration())
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
			b.ReportMetric(perStation, "B/station")
			runtime.KeepAlive(sys)
		})
	}
}

// cyclingLazySystem builds an n-station lazy cell where the first nActive
// stations carry real voice sources (cycling through talkspurts and
// silences, waking via the timer wheel) and the rest stay parked far in
// the future. Active sources are pre-built so FirstWake can be read off
// NextEventAt; Materialize hands out the pre-built source on first wake.
func cyclingLazySystem(tb testing.TB, n, nActive int) *mac.System {
	tb.Helper()
	vp := traffic.DefaultVoiceParams()
	voices := make([]*traffic.VoiceSource, nActive)
	fw := make([]sim.Time, n)
	for i := range fw {
		if i < nActive {
			voices[i] = traffic.NewVoice(vp, rng.DeriveIndexed(41, "popv", i), 0)
			fw[i] = voices[i].NextEventAt()
		} else {
			fw[i] = 1 << 40
		}
	}
	pop := &mac.LazyPopulation{
		FirstWake: fw,
		Materialize: func(slot int) (*traffic.VoiceSource, *traffic.DataSource, *channel.Fading) {
			if slot >= nActive {
				tb.Fatalf("parked station %d materialized", slot)
			}
			return voices[slot], nil, nil
		},
	}
	sys, err := mac.NewSystemLazy(mac.DefaultConfig(), phy.NewAdaptive(phy.DefaultParams()), n, rng.New(2), pop)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// TestIdleWakeHotPathAllocs extends the zero-alloc frame guard to the
// idle-wake path at 10⁵ stations: once wheel buckets and scratch slices
// have reached their high-water marks, a frame that wakes stations off the
// timer wheel, advances their talkspurts, and re-parks them must not
// allocate. Silences of ~1.35 s park wakes several wheel levels up, so the
// steady state exercises arm, cascade, and collect.
func TestIdleWakeHotPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("long warmup")
	}
	sys := cyclingLazySystem(t, 100_000, 2000)
	// Warm past one full level-1 wheel revolution (64·64 granules ≈ 5243
	// frames) so every wheel bucket and scratch slice has seen its peak,
	// and past every source's first long unserved talkspurt (~1.3 s of
	// talking) so voice buffers reach their terminal capacity.
	for f := 0; f < 32000; f++ {
		sys.BeginFrame()
		sys.EndFrame(sys.FrameDuration())
	}
	avg := testing.AllocsPerRun(300, func() {
		sys.BeginFrame()
		sys.EndFrame(sys.FrameDuration())
	})
	if avg != 0 {
		t.Fatalf("idle-wake hot path allocates %.3f allocs/frame, want 0", avg)
	}
	if err := sys.VerifyRegistry(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkIdleWakeCell measures the steady-state idle-wake cycle at 10⁵
// stations: 2000 voice stations cycle talkspurt→idle→wheel-wake while the
// rest stay parked. TestIdleWakeHotPathAllocs holds the same cycle to zero
// allocations after the same warm-up.
func BenchmarkIdleWakeCell(b *testing.B) {
	sys := cyclingLazySystem(b, 100_000, 2000)
	// Warm-up as in TestIdleWakeHotPathAllocs: past one level-1 wheel
	// revolution and every source's first long unserved talkspurt.
	for f := 0; f < 32000; f++ {
		sys.BeginFrame()
		sys.EndFrame(sys.FrameDuration())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.BeginFrame()
		sys.EndFrame(sys.FrameDuration())
	}
}
