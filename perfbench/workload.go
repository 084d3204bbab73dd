package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"charisma/internal/core"
	"charisma/internal/experiments"
	"charisma/internal/grid"
	"charisma/internal/mac"
	"charisma/internal/scengen"
)

// sizes fixes how much work one sweep of each workload does. The full
// size is what the benchmark measures; the tiny one exists for the
// self-tests.
type sizes struct {
	voiceNv             []int
	voiceWarm, voiceDur float64
	voiceReps           int
	dataNd              []int
	dataWarm, dataDur   float64
	dataReps            int
	// warmDur is the measured seconds of the setup warm-up replications.
	warmDur float64
	// corpusCount entries are generated; each point runs corpusReps
	// replications, half of which are primed into the disk cache first.
	corpusCount int
	corpusReps  int
	// Replications per protocol (and multicell) re-executed by the output
	// check; a traced run also replays the single-cell ones frame by frame.
	samplePerGroup int
}

var sizeTable = map[string]sizes{
	"full": {
		voiceNv: experiments.DefaultVoiceSweep(), voiceWarm: 2, voiceDur: 10, voiceReps: 2,
		dataNd: experiments.DefaultDataSweep(), dataWarm: 0.5, dataDur: 2, dataReps: 24,
		warmDur:     1.0,
		corpusCount: 1500, corpusReps: 2,
		samplePerGroup: 2,
	},
	"tiny": {
		voiceNv: []int{20, 60}, voiceWarm: 0.1, voiceDur: 0.2, voiceReps: 2,
		dataNd: []int{2, 10}, dataWarm: 0.1, dataDur: 0.2, dataReps: 2,
		warmDur:     0.1,
		corpusCount: 24, corpusReps: 2,
		samplePerGroup: 1,
	},
}

// loopbackWorkers is the in-process worker pool of the loopback
// workloads and the Parallel setting of the remote worker.
const loopbackWorkers = 2

// iteration is one set-up-and-sweep cycle of a workload.
type iteration struct {
	// points are the sweep points the grid ran, in order; lookup holds
	// the per-replication results the grid stored for them.
	points []grid.Point
	lookup grid.Cache
	// agree checks the sweep's own output against per-point aggregates
	// of the stored per-replication results.
	agree func(agg []mac.Result) error

	executed, hits, requeues int
	cacheStats               grid.CacheStats
	failed                   int       // replication errors and abandoned remote deliveries
	panelS                   []float64 // seconds per experiments entry-point call

	meter    *httpMeter
	server   *serverMeter
	corpus   *corpusIter // corpus-remote only
	close    func()      // stops the services set up for the iteration
	release  func()      // removes the iteration's files
	traced   bool
	setup    time.Duration
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	peak     uint64
	gcs      uint32
	pause    time.Duration
	digest   string // of the stored replications, once the sweep passed its check
	checkErr error
}

func (it *iteration) resolved() int { return it.executed + it.hits }

// drop releases everything but the iteration's measurements.
func (it *iteration) drop() {
	it.points, it.lookup, it.agree, it.corpus = nil, nil, nil, nil
	it.server, it.close, it.release = nil, nil, nil
}

// workload is one of the benchmark's input sets.
type workload interface {
	// setup prepares one iteration outside the timed phase.
	setup(ctx context.Context, rec *Recorder, traced bool) (*iteration, error)
	// run is the timed phase. lane is nil in the untraced run.
	run(ctx context.Context, it *iteration, lane *Lane) error
}

func newWorkload(name string, seed int64, sz sizes, workDir string) (workload, error) {
	switch name {
	case "fig11-voice":
		return &loopback{
			panels: []panelDef{{"fig11a", 11, 0, false}, {"fig11f", 11, 20, true}},
			xs:     sz.voiceNv, warm: sz.voiceWarm, dur: sz.voiceDur, reps: sz.voiceReps,
			warmDur: sz.warmDur, seed: seed,
		}, nil
	case "fig12-data":
		return &loopback{
			panels: []panelDef{{"fig12a", 12, 0, false}, {"fig12f", 12, 20, true}},
			xs:     sz.dataNd, warm: sz.dataWarm, dur: sz.dataDur, reps: sz.dataReps,
			warmDur: sz.warmDur, seed: seed,
		}, nil
	case "corpus-remote":
		return &corpus{seed: seed, count: sz.corpusCount, reps: sz.corpusReps, workDir: workDir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fig11-voice, fig12-data or corpus-remote)", name)
}

// countErrs counts the errors joined into err.
func countErrs(err error) int {
	if err == nil {
		return 0
	}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		n := 0
		for _, e := range j.Unwrap() {
			n += countErrs(e)
		}
		return n
	}
	return 1
}

// panelDef names one Fig. 11 or Fig. 12 panel: the fixed population
// (Nd for Fig. 11, Nv for Fig. 12) and whether the BS queue is on.
type panelDef struct {
	id     string
	figure int
	fixed  int
	queue  bool
}

// loopback runs figure panels through experiments on the in-process
// grid: two loopback workers and a fresh in-memory cache per sweep.
type loopback struct {
	panels    []panelDef
	xs        []int
	warm, dur float64
	reps      int
	warmDur   float64
	seed      int64
}

// scenario is the cell the experiments package builds for (proto, x) of
// panel p.
func (l *loopback) scenario(p panelDef, proto string, x int) core.Scenario {
	sc := core.DefaultScenario(proto)
	if p.figure == 11 {
		sc.NumVoice, sc.NumData = x, p.fixed
	} else {
		sc.NumVoice, sc.NumData = p.fixed, x
	}
	sc.UseQueue = p.queue
	sc.Seed = l.seed
	sc.WarmupSec, sc.DurationSec = l.warm, l.dur
	return sc
}

// points lists panel p's sweep points in the experiments package's order
// (protocols outer, x inner).
func (l *loopback) points(p panelDef) []grid.Point {
	var pts []grid.Point
	for _, proto := range core.Protocols() {
		for _, x := range l.xs {
			pts = append(pts, grid.Point{Spec: grid.ScenarioSpec(l.scenario(p, proto, x)), Replications: l.reps})
		}
	}
	return pts
}

func (l *loopback) setup(ctx context.Context, _ *Recorder, traced bool) (*iteration, error) {
	it := &iteration{traced: traced, lookup: grid.NewMemCache(), close: func() {}, release: func() {}}
	for _, p := range l.panels {
		it.points = append(it.points, l.points(p)...)
	}
	// Warm the replication arenas, the heap and the loopback pool: one
	// short replication per protocol at the panels' heaviest load.
	last := l.panels[len(l.panels)-1]
	var warm []grid.Point
	for _, proto := range core.Protocols() {
		sc := l.scenario(last, proto, l.xs[len(l.xs)-1])
		sc.WarmupSec, sc.DurationSec = 0.1, l.warmDur
		warm = append(warm, grid.Point{Spec: grid.ScenarioSpec(sc), Replications: 1})
	}
	if _, err := grid.RunPoints(ctx, warm, grid.DriveConfig{Workers: loopbackWorkers}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return it, nil
}

func (l *loopback) run(ctx context.Context, it *iteration, lane *Lane) error {
	if lane != nil {
		return l.runTraced(ctx, it, lane)
	}
	var stats grid.SweepStats
	rc := experiments.RunConfig{
		Seed: l.seed, WarmupSec: l.warm, DurationSec: l.dur, Replications: l.reps,
		Workers: loopbackWorkers, Cache: it.lookup, Stats: &stats,
	}
	var panels []experiments.Panel
	for _, p := range l.panels {
		start := time.Now()
		var pan experiments.Panel
		var err error
		if p.figure == 11 {
			pan, err = experiments.VoiceLossPanel(ctx, p.id, p.fixed, p.queue, l.xs, rc)
		} else {
			pan, err = experiments.DataPanel(ctx, p.id, experiments.MetricDataThroughput, p.fixed, p.queue, l.xs, rc)
		}
		it.panelS = append(it.panelS, time.Since(start).Seconds())
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			it.failed += countErrs(err)
		}
		panels = append(panels, pan)
	}
	it.executed, it.hits, it.requeues = stats.Simulated, stats.CacheHits, stats.Requeues
	it.agree = func(agg []mac.Result) error { return l.agreePanels(panels, agg) }
	return nil
}

// agreePanels checks every panel value and error bar against the
// aggregate of the stored replications of its point.
func (l *loopback) agreePanels(panels []experiments.Panel, agg []mac.Result) error {
	j := 0
	for pi, pan := range panels {
		if len(pan.Series) != len(core.Protocols()) {
			return fmt.Errorf("panel %s: %d series, want %d", l.panels[pi].id, len(pan.Series), len(core.Protocols()))
		}
		for _, s := range pan.Series {
			for xi := range l.xs {
				if xi >= len(s.Y) {
					return fmt.Errorf("panel %s %s: %d points, want %d", pan.ID, s.Label, len(s.Y), len(l.xs))
				}
				r := agg[j]
				j++
				y, e := r.VoiceLossRate, r.Reps.VoiceLossCI95
				if l.panels[pi].figure == 12 {
					y, e = r.DataThroughputPerFrame, r.Reps.DataThroughputCI95
				}
				if s.Y[xi] != y || s.Err[xi] != e {
					return fmt.Errorf("panel %s %s x=%d: grid reports %v±%v, stored replications aggregate to %v±%v",
						pan.ID, s.Label, l.xs[xi], s.Y[xi], s.Err[xi], y, e)
				}
			}
		}
	}
	return nil
}

// runTraced drives each panel's session through the calls grid.RunLocal
// makes, with a span around each.
func (l *loopback) runTraced(ctx context.Context, it *iteration, lane *Lane) error {
	var all []mac.Result
	offset := 0
	for _, p := range l.panels {
		pts := l.points(p)
		sweep := lane.Begin("grid.sweep", 0, -1)
		res, sess, err := tracedLocal(ctx, lane, sweep.ID(), pts, offset, it.lookup)
		lane.End(sweep)
		offset += len(pts)
		if sess == nil {
			return err
		}
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			it.failed += countErrs(err)
		}
		it.executed += sess.Executed()
		it.hits += sess.CacheHits()
		it.requeues += sess.Requeues()
		all = append(all, res...)
	}
	it.agree = func(agg []mac.Result) error { return agreeResults(all, agg) }
	return nil
}

// tracedLocal is grid.RunPoints over the loopback pool, spelled out so
// each call into the grid and each replication carries a span.
func tracedLocal(ctx context.Context, lane *Lane, parent int64, pts []grid.Point, offset int, cache grid.Cache) ([]mac.Result, *grid.Session, error) {
	o := lane.Begin("grid.session_new", parent, -1)
	sess, err := grid.NewSession(pts, cache, grid.Precision{})
	lane.End(o)
	if err != nil {
		return nil, nil, err
	}
	var wg sync.WaitGroup
	for w := 0; w < loopbackWorkers; w++ {
		wg.Add(1)
		wl := lane.rec.Lane()
		go func() {
			defer wg.Done()
			defer wl.Flush()
			for {
				o := wl.Begin("grid.next_wait", parent, -1)
				t, ok := sess.NextWait(ctx)
				if !ok {
					return
				}
				wl.End(o)
				id := repID(offset+t.Point, t.Rep)
				o = wl.Begin(repSpan(t.Spec), parent, id)
				res, err := t.Spec.RunRep(t.Rep)
				wl.End(o)
				tr := grid.TaskResult{Point: t.Point, Rep: t.Rep, Lease: t.Lease, Result: res}
				if err != nil {
					tr.Err = err.Error()
				}
				o = wl.Begin("grid.complete", parent, id)
				_ = sess.Complete(tr) // completing our own leased task cannot fail validation
				wl.End(o)
			}
		}()
	}
	wg.Wait()
	o = lane.Begin("grid.results", parent, -1)
	res, err := sess.Results()
	lane.End(o)
	if cerr := ctx.Err(); cerr != nil {
		return res, sess, cerr
	}
	return res, sess, err
}

func repSpan(spec grid.JobSpec) string {
	if spec.Multicell != nil {
		return "multicell.rep"
	}
	return "core.rep"
}

// agreeResults checks per-point results byte for byte against the
// aggregates of the stored replications.
func agreeResults(got, agg []mac.Result) error {
	if len(got) != len(agg) {
		return fmt.Errorf("grid returned %d points, want %d", len(got), len(agg))
	}
	for j := range got {
		if err := sameResult(got[j], agg[j]); err != nil {
			return fmt.Errorf("point %d: %w", j, err)
		}
	}
	return nil
}

// corpus runs a generated scenario corpus as a JSONL file through the
// operator path: coordinator with an on-disk cache serving one remote
// worker over loopback HTTP, no local simulation.
type corpus struct {
	seed    int64
	count   int
	reps    int
	workDir string
}

// corpusIter is what a corpus iteration's setup leaves for its timed phase.
type corpusIter struct {
	path     string
	cacheDir string
	sv       *grid.Server
	ws       *grid.WorkerStats
}

const (
	leaseTTL   = 30 * time.Second // the coordinator's -lease-ttl default
	workerPoll = 20 * time.Millisecond
)

func (c *corpus) setup(ctx context.Context, rec *Recorder, traced bool) (*iteration, error) {
	pts := scengen.Generate(scengen.Config{Seed: c.seed, Count: c.count, MaxCells: 3})
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.workDir, "corpus-")
	if err != nil {
		return nil, err
	}
	it := &iteration{traced: traced, close: func() {}, release: func() { os.RemoveAll(dir) }}
	ci := &corpusIter{path: filepath.Join(dir, "corpus.jsonl"), cacheDir: filepath.Join(dir, "cache"), ws: new(grid.WorkerStats)}
	f, err := os.Create(ci.path)
	if err == nil {
		err = grid.WriteScenarioFile(f, pts)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		it.release()
		return nil, fmt.Errorf("write corpus: %w", err)
	}
	// Prime the disk cache with the first half of every point's
	// replications, as an earlier run at a lower -reps would have.
	if _, _, err := experiments.RunScenarioFile(ctx, ci.path, c.reps/2,
		experiments.RunConfig{Seed: c.seed, CacheDir: ci.cacheDir, Workers: loopbackWorkers}); err != nil {
		it.release()
		return nil, fmt.Errorf("prime cache: %w", err)
	}

	ci.sv = grid.NewServer()
	ci.sv.LeaseTTL = leaseTTL
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		it.release()
		return nil, err
	}
	var handler http.Handler = ci.sv
	if traced {
		it.server = &serverMeter{h: ci.sv, lane: rec.Lane()}
		handler = it.server
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns ErrServerClosed once close runs
	}()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = tr
	if traced {
		it.meter = newHTTPMeter(tr)
		rt = it.meter
	}
	wctx, cancel := context.WithCancel(ctx)
	worked := make(chan struct{})
	w := grid.Worker{
		Coordinator: "http://" + ln.Addr().String(),
		ID:          "perfbench",
		Parallel:    loopbackWorkers,
		Poll:        workerPoll,
		Client:      &http.Client{Timeout: 30 * time.Second, Transport: rt},
		Stats:       ci.ws,
	}
	go func() {
		defer close(worked)
		_ = w.Run(wctx) // ends with the context; delivery failures are counted in ci.ws
	}()
	it.close = func() {
		ci.sv.Close()
		cancel()
		<-worked
		_ = hs.Close()
		<-served
		tr.CloseIdleConnections()
		if it.server != nil {
			it.server.lane.Flush()
		}
	}
	it.lookup = grid.NewDiskCache(ci.cacheDir, nil)
	it.corpus = ci
	return it, nil
}

func (c *corpus) run(ctx context.Context, it *iteration, lane *Lane) error {
	ci := it.corpus
	var got []mac.Result
	if lane == nil {
		var stats grid.SweepStats
		start := time.Now()
		pts, res, err := experiments.RunScenarioFile(ctx, ci.path, c.reps, experiments.RunConfig{
			Seed: c.seed, CacheDir: ci.cacheDir, Server: ci.sv, RemoteOnly: true, Stats: &stats,
		})
		it.panelS = append(it.panelS, time.Since(start).Seconds())
		if err != nil {
			// RunScenarioFile returns no partial results on error.
			return err
		}
		it.points, got = pts, res
		it.executed, it.hits, it.requeues = stats.Simulated, stats.CacheHits, stats.Requeues
	} else {
		// grid.RunPoints with RemoteOnly, spelled out with a span around
		// each call.
		sweep := lane.Begin("grid.sweep", 0, -1)
		it.server.mu.Lock()
		it.server.parent = sweep.ID()
		it.server.mu.Unlock()
		o := lane.Begin("grid.scenario_load", sweep.ID(), -1)
		pts, err := grid.LoadScenarioPath(ci.path)
		lane.End(o)
		if err != nil {
			return err
		}
		for i := range pts {
			pts[i].Replications = c.reps
		}
		o = lane.Begin("grid.session_new", sweep.ID(), -1)
		sess, err := grid.NewSession(pts, grid.NewCache(ci.cacheDir), grid.Precision{})
		lane.End(o)
		if err != nil {
			return err
		}
		ci.sv.Attach(sess)
		o = lane.Begin("grid.wait", sweep.ID(), -1)
		err = sess.Wait(ctx)
		lane.End(o)
		if err != nil {
			return err
		}
		o = lane.Begin("grid.results", sweep.ID(), -1)
		res, err := sess.Results()
		lane.End(o)
		lane.End(sweep)
		if err != nil {
			it.failed += countErrs(err)
		}
		it.points, got = pts, res
		it.executed, it.hits, it.requeues = sess.Executed(), sess.CacheHits(), sess.Requeues()
		it.cacheStats, _ = sess.CacheStats()
	}
	it.failed += int(ci.ws.Abandoned.Load())
	it.agree = func(agg []mac.Result) error { return agreeResults(got, agg) }
	return nil
}

// sameResult compares two results by their canonical JSON encoding.
func sameResult(got, want mac.Result) error {
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if string(a) != string(b) {
		return errors.New("results differ: " + firstDiff(a, b))
	}
	return nil
}

// firstDiff shows both encodings around their first differing byte.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Sprintf("at byte %d: %q vs %q", i, a[lo:min(i+40, len(a))], b[lo:min(i+40, len(b))])
}
