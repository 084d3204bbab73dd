package grid

import (
	"context"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"charisma/internal/core"
	"charisma/internal/mac"
	"charisma/internal/multicell"
	"charisma/internal/run"
)

func sweepScenarios() []core.Scenario {
	return []core.Scenario{
		tinyScenario(core.ProtoCharisma, 8, 0),
		tinyScenario(core.ProtoRAMA, 8, 0),
		tinyScenario(core.ProtoCharisma, 8, 4),
	}
}

func sweepPoints(reps int) []Point {
	scs := sweepScenarios()
	pts := make([]Point, len(scs))
	for i, sc := range scs {
		pts[i] = Point{Spec: ScenarioSpec(sc), Replications: reps}
	}
	return pts
}

// TestGridPathsByteIdentical is the acceptance gate for the subsystem: a
// replicated sweep must produce byte-identical mac.Results across all four
// execution paths — sequential reference, loopback grid, multi-worker grid,
// and warm cache.
func TestGridPathsByteIdentical(t *testing.T) {
	const reps = 3
	ctx := context.Background()

	// Path 1: the sequential reference run.Sequential.
	want, err := run.Sequential(sweepScenarios(), reps)
	if err != nil {
		t.Fatal(err)
	}

	// Path 2: grid session on the loopback transport.
	loop, err := NewSession(sweepPoints(reps), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(ctx, loop, 4); err != nil {
		t.Fatal(err)
	}
	got, err := loop.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("loopback grid differs from sequential reference")
	}

	// Path 3: coordinator + two workers over real HTTP.
	sess, err := NewSession(sweepPoints(reps), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer()
	sv.Attach(sess)
	hs := httptest.NewServer(sv)
	defer hs.Close()
	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := Worker{Coordinator: hs.URL, Parallel: 2, Poll: 5 * time.Millisecond}
			workerErrs[i] = w.Run(ctx)
		}(i)
	}
	if err := sess.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	sv.Close() // workers see 410 and drain
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	got, err = sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("multi-worker grid differs from sequential reference")
	}
	if sess.Executed() == 0 {
		t.Fatal("remote workers executed nothing")
	}

	// Path 4: warm cache — populate a disk cache, then re-run the sweep
	// against it: zero simulations, identical bytes.
	cache := NewCache(t.TempDir())
	first, err := NewSession(sweepPoints(reps), cache, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(ctx, first, 0); err != nil {
		t.Fatal(err)
	}
	warm, err := NewSession(sweepPoints(reps), cache, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Done() {
		t.Fatal("fully cached session not immediately done")
	}
	if warm.Executed() != 0 {
		t.Fatalf("warm cache ran %d simulations", warm.Executed())
	}
	if warm.CacheHits() != reps*len(sweepScenarios()) {
		t.Fatalf("cache hits = %d, want %d", warm.CacheHits(), reps*len(sweepScenarios()))
	}
	got, err = warm.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("warm cache differs from sequential reference")
	}
}

// TestGridWarmCacheZeroSims re-runs a sweep against a cold-then-warm disk
// cache through the loopback path: the second run must not simulate.
func TestGridWarmCacheZeroSims(t *testing.T) {
	ctx := context.Background()
	cache := NewCache(t.TempDir())
	for pass, wantExec := range []bool{true, false} {
		sess, err := NewSession(sweepPoints(2), cache, Precision{})
		if err != nil {
			t.Fatal(err)
		}
		if err := RunLocal(ctx, sess, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Results(); err != nil {
			t.Fatal(err)
		}
		if wantExec && sess.Executed() == 0 {
			t.Fatalf("pass %d: cold cache executed nothing", pass)
		}
		if !wantExec && sess.Executed() != 0 {
			t.Fatalf("pass %d: warm cache executed %d simulations", pass, sess.Executed())
		}
	}
}

// TestSessionDedupsIdenticalPoints: two points with the same spec share
// simulations — the (spec, seed) pair runs once and feeds both.
func TestSessionDedupsIdenticalPoints(t *testing.T) {
	sc := tinyScenario(core.ProtoCharisma, 8, 0)
	pts := []Point{
		{Spec: ScenarioSpec(sc), Replications: 2},
		{Spec: ScenarioSpec(sc), Replications: 2},
	}
	sess, err := NewSession(pts, nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), sess, 2); err != nil {
		t.Fatal(err)
	}
	rs, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Executed() != 2 {
		t.Fatalf("executed %d simulations, want 2 (deduplicated)", sess.Executed())
	}
	if !reflect.DeepEqual(rs[0], rs[1]) {
		t.Fatal("deduplicated points disagree")
	}
}

// TestSessionPartialFailure: a failing spec costs its own point, not the
// sweep — healthy points aggregate normally alongside the joined error.
func TestSessionPartialFailure(t *testing.T) {
	bad := tinyScenario(core.ProtoCharisma, 8, 0)
	bad.Channel.ShadowSigmaDB = -1 // fails validation inside Scenario.Run
	pts := []Point{
		{Spec: ScenarioSpec(tinyScenario(core.ProtoCharisma, 8, 0)), Replications: 2},
		{Spec: ScenarioSpec(bad), Replications: 2},
	}
	sess, err := NewSession(pts, nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), sess, 2); err != nil {
		t.Fatal(err)
	}
	rs, err := sess.Results()
	if err == nil || !strings.Contains(err.Error(), "shadow sigma") {
		t.Fatalf("error %v does not surface the failure", err)
	}
	if rs[0].Frames == 0 || rs[0].Reps.Replications != 2 {
		t.Fatalf("healthy point lost: %+v", rs[0])
	}
	if !reflect.DeepEqual(rs[1], mac.Result{}) {
		t.Fatalf("failed point not zero: %+v", rs[1])
	}
}

// TestSessionStrayResultsIgnored: duplicate and unknown deliveries must
// not corrupt session state or plant entries in the shared cache.
func TestSessionStrayResultsIgnored(t *testing.T) {
	cache := NewMemCache()
	sess, err := NewSession(sweepPoints(1), cache, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Complete(TaskResult{Point: 99, Rep: 0}); err == nil {
		t.Fatal("unknown point accepted")
	}
	if err := sess.Complete(TaskResult{Point: 0, Rep: -1}); err == nil {
		t.Fatal("negative rep accepted")
	}
	// A result for a rep that was never scheduled has no in-flight entry:
	// it must be dropped without reaching the cache, where a later, wider
	// sweep of the same spec would hit it.
	if err := sess.Complete(TaskResult{Point: 0, Rep: 57, Result: mac.Result{Protocol: "forged"}}); err != nil {
		t.Fatalf("stray rep should be dropped quietly, got %v", err)
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("stray result reached the cache (%d entries)", n)
	}
	if err := RunLocal(context.Background(), sess, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Results(); err != nil {
		t.Fatal(err)
	}
}

// TestMulticellSpecMatchesSequential: the serializable multicell spec
// replicates under the same seeds and per-cell-frame normalization as an
// inline reference that shares no code with JobSpec.RunRep — a loop of
// multicell.Run over run.RepSeed with Frames divided by the cell count —
// and its throughput agrees with multicell.RunReplicated.
func TestMulticellSpecMatchesSequential(t *testing.T) {
	p := tinyMulticell()
	p.NumData = 8 // data traffic: the throughput normalization must survive the fold
	const reps = 2
	rs := make([]mac.Result, reps)
	for i := range rs {
		pi := p
		pi.Seed = run.RepSeed(p.Seed, i)
		r, err := multicell.Run(pi)
		if err != nil {
			t.Fatal(err)
		}
		r.Result.Frames /= float64(len(r.PerCell))
		rs[i] = r.Result
	}
	want := []mac.Result{mac.AggregateReplications(rs)}
	if want[0].DataDelivered == 0 {
		t.Fatal("deployment delivered no data; normalization not exercised")
	}
	sess, err := NewSession([]Point{{Spec: MulticellSpec(p), Replications: reps}}, nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), sess, 2); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("multicell spec differs from the sequential reference:\n%+v\n%+v", want[0], got[0])
	}
	pooled, err := multicell.RunReplicated(context.Background(), p, reps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0].DataThroughputPerFrame-pooled.DataThroughputPerFrame) > 1e-9 {
		t.Fatalf("grid throughput %v, RunReplicated %v", got[0].DataThroughputPerFrame, pooled.DataThroughputPerFrame)
	}
}

// TestSessionContextCancellation: cancelling the context unblocks workers
// and Results reports the incomplete session.
func TestSessionContextCancellation(t *testing.T) {
	sess, err := NewSession(sweepPoints(2), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := RunLocal(ctx, sess, 2); err == nil {
		t.Fatal("cancelled RunLocal returned nil")
	}
	if _, err := sess.Results(); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("results on cancelled session: %v", err)
	}
}
