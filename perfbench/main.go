// Command perfbench is the repository's benchmark. It runs one seeded
// workload through the same public entry points users call, checks the
// outputs, and prints every metric by name and unit; the last line of its
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Run it from the root of the repository through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fig11-voice --seed 1 --seconds 30 --trace 0
//
// Workloads (the reasons are in BENCHMARK.json, the layer predictions in
// layers.json):
//
//   - fig11-voice: Fig. 11a and 11f, all six protocols, Nv 20–160, 2 s
//     warm-up + 10 s measured, 2 replications, on the loopback grid.
//   - fig12-data: Fig. 12a and 12f, Nd 2–30, 0.5 s + 2 s, 24 replications
//     per point (2016 tasks), on the loopback grid.
//   - corpus-remote: a scengen corpus written as JSONL and run through
//     experiments.RunScenarioFile with an on-disk cache that already holds
//     half of each point's replications; the other half runs on one
//     in-process grid.Worker over loopback HTTP.
//
// With --trace 0 a run repeats set-up and the timed sweep for --seconds
// and reports end-to-end medians. With --trace 1 it alternates untraced
// and traced sweeps, replays a seeded sample of replications frame by
// frame with and without spans, and reports the per-layer metrics from the
// spans it recorded around calls into each layer (written to
// .bench_build/spans/) and the overhead of those spans.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

//go:embed digests.json
var digestsJSON []byte

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"allocs_per_rep", "count"},
	{"peak_heap_mb", "MB"},
}

var protoKeys = []string{"charisma", "dtdma-vr", "dtdma-fr", "drma", "rama", "rmav"}

func perLayerDefs() []metricDef {
	var d []metricDef
	for _, p := range protoKeys {
		d = append(d, metricDef{"mac." + p + ".run_frame_us_p50", "us"}, metricDef{"mac." + p + ".run_frame_us_p99", "us"})
	}
	return append(d,
		metricDef{"mac.begin_frame_us_p50", "us"}, metricDef{"mac.begin_frame_us_p99", "us"},
		metricDef{"mac.end_frame_us_p50", "us"}, metricDef{"mac.end_frame_us_p99", "us"},
		metricDef{"mac.cand_hit_ratio", "ratio"},
		metricDef{"mac.wheel_wakes_per_frame", "1/frame"},
		metricDef{"mac.epoch_bumps_per_frame", "1/frame"},
		metricDef{"mac.result_us", "us"},
		metricDef{"sim.events_per_rep", "count"},
		metricDef{"sim.frame_event_ns", "ns"},
		metricDef{"core.build_us_p50", "us"},
		metricDef{"core.materialized_per_rep", "count"},
		metricDef{"core.rep_ms_p50", "ms"}, metricDef{"core.rep_ms_p90", "ms"},
		metricDef{"rng.reseed_us", "us"},
		metricDef{"multicell.rep_ms_p50", "ms"}, metricDef{"multicell.rep_ms_p90", "ms"},
		metricDef{"grid.session_new_ms", "ms"},
		metricDef{"grid.next_wait_us_p50", "us"}, metricDef{"grid.next_wait_us_p90", "us"},
		metricDef{"grid.complete_us_p50", "us"}, metricDef{"grid.complete_us_p90", "us"},
		metricDef{"grid.results_ms", "ms"},
		metricDef{"grid.scenario_load_ms", "ms"},
		metricDef{"grid.executed", "count"}, metricDef{"grid.cache_hits", "count"}, metricDef{"grid.requeues", "count"},
		metricDef{"grid.disk_hits", "count"}, metricDef{"grid.disk_misses", "count"},
		metricDef{"grid.disk_corrupt", "count"}, metricDef{"grid.disk_put_errors", "count"},
		metricDef{"grid.http_task_ms_p50", "ms"}, metricDef{"grid.http_task_ms_p90", "ms"},
		metricDef{"grid.http_result_ms_p50", "ms"}, metricDef{"grid.http_result_ms_p90", "ms"},
		metricDef{"grid.http_requests", "count"}, metricDef{"grid.http_empty_polls", "count"},
		metricDef{"grid.http_heartbeats", "count"}, metricDef{"grid.http_retries", "count"},
		metricDef{"grid.http_failed", "count"}, metricDef{"grid.claim_yield", "ratio"},
		metricDef{"task_ms_p50", "ms"}, metricDef{"task_ms_p90", "ms"}, metricDef{"task_samples", "count"},
		metricDef{"experiments.panel_s", "s"},
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"trace.untraced_wall_s", "s"}, metricDef{"trace.traced_wall_s", "s"},
		metricDef{"trace.sweep_overhead_frac", "ratio"}, metricDef{"trace.frame_overhead_frac", "ratio"},
		metricDef{"trace.span_pair_ns", "ns"}, metricDef{"trace.spans", "count"},
	)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the checkout; build and scratch files go under
	// root/.bench_build. The command runs from the checkout at the full
	// size; the self-tests set a temporary root and the tiny size.
	root string
	size string
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// deadline keeps every run inside the 180 s a run may take.
const deadline = 170 * time.Second

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "fig11-voice, fig12-data or corpus-remote")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()
	o.root, o.size = ".", "full"
	o.trace = trace == 1
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	res, err := bench(ctx, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// minIters is the least number of sweeps of each kind a run makes.
const minIters = 3

// bench runs one workload and returns its result line; w receives the
// human-readable report.
func bench(ctx context.Context, o options, w io.Writer) (result, error) {
	sz, ok := sizeTable[o.size]
	if !ok {
		return result{}, fmt.Errorf("unknown size %q", o.size)
	}
	buildDir := filepath.Join(o.root, ".bench_build")
	wl, err := newWorkload(o.workload, o.seed, sz, filepath.Join(buildDir, "work"))
	if err != nil {
		return result{}, err
	}
	var rec *Recorder
	if o.trace {
		rec = NewRecorder()
	}
	var its []*iteration
	var digest string // the first verified sweep's
	var fc frameCounters
	failed, attempted := 0, 0
	var notes []string
	start := time.Now()
	var last time.Duration
	nu, nt := 0, 0 // untraced and traced sweeps so far
	for i := 0; ; i++ {
		traced := o.trace && i%2 == 1
		enough := nu >= minIters && (!o.trace || nt >= minIters-1)
		if enough && time.Since(start)+last > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
		iterStart := time.Now()
		it, err := runIteration(ctx, wl, rec, traced)
		if err != nil {
			return result{}, err
		}
		last = time.Since(iterStart)
		its = append(its, it)
		if traced {
			nt++
		} else {
			nu++
		}
		attempted += it.resolved()
		failed += it.failed
		switch {
		case it.digest == "":
			failed++
			notes = append(notes, "sweep check: "+it.checkErr.Error())
		case digest == "":
			// The first verified sweep is checked against sequential
			// re-executions, before the next sweep starts, so that every
			// sweep starts from the same heap.
			digest = it.digest
			a, f, n := checkOutputs(o, sz, it, rec, &fc)
			attempted += a
			failed += f
			notes = append(notes, n...)
		case it.digest != digest:
			failed++
			notes = append(notes, "sweeps of one run disagree: "+it.digest+" vs "+digest)
		}
		it.release()
		it.drop()
	}
	if digest != "" {
		note, ok := digestNote(o, digest)
		notes = append(notes, note)
		if !ok {
			failed++
		}
	}

	metrics := make(map[string]metricValue)
	if o.trace {
		spans := rec.Spans()
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.tsv", o.workload, o.seed))
		if err := writeSpans(path, spans); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		notes = append(notes, "spans written to "+path)
		perLayer(metrics, its, spans, fc)
		printLayers(w, selfTimes(spans))
	} else {
		var setups []float64
		for _, it := range its {
			setups = append(setups, it.setup.Seconds())
		}
		extra, err := extraSetups(ctx, wl, setups, time.Duration(o.seconds*float64(time.Second)/10))
		if err != nil {
			return result{}, err
		}
		setups = append(setups, extra...)
		notes = append(notes, fmt.Sprintf("setup_s is the median of %d set-ups, %d of them without a sweep", len(setups), len(extra)))
		endToEndMetrics(metrics, its, setups)
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	report(w, o, its, notes, res)
	return res, nil
}

// checkOutputs re-executes a seeded sample of the sweep's replications
// sequentially and compares them with what the grid stored. In a traced
// run it also replays the sample's single-cell replications frame by
// frame, once with spans and once without, alternating which goes first.
func checkOutputs(o options, sz sizes, it *iteration, rec *Recorder, fc *frameCounters) (attempted, failed int, notes []string) {
	var lane *Lane
	if rec != nil {
		lane = rec.Lane()
		defer lane.Flush()
	}
	refs := sample(it.points, sz.samplePerGroup, o.seed)
	mism := checkSample(it, refs, lane)
	for _, e := range mism {
		notes = append(notes, "output check: "+e.Error())
	}
	notes = append(notes, fmt.Sprintf("output check: %d sampled replications re-executed, %d mismatched", len(refs), len(mism)))
	attempted, failed = len(refs), len(mism)
	if rec == nil {
		return attempted, failed, notes
	}
	n := 0
	for _, ref := range refs {
		spec := it.points[ref.point].Spec
		if spec.Scenario == nil {
			continue
		}
		for k := 0; k < 2; k++ {
			withSpans := (n+k)%2 == 0
			var l *Lane
			var c *frameCounters
			if withSpans {
				l, c = lane, fc
			}
			start := time.Now()
			res, err := replay(l, spec, ref, c)
			if withSpans {
				fc.traced += time.Since(start)
			} else {
				fc.plain += time.Since(start)
			}
			if err == nil {
				err = checkStored(it, ref, res)
			}
			attempted++
			if err != nil {
				failed++
				notes = append(notes, fmt.Sprintf("frame replay (spans %v): %v", withSpans, err))
			}
		}
		n++
	}
	notes = append(notes, fmt.Sprintf("frame replay: %d sampled replications replayed with and without spans, compared byte for byte with the grid's", n))
	return attempted, failed, notes
}

// runIteration sets up one sweep, times it, tears it down and verifies it.
func runIteration(ctx context.Context, wl workload, rec *Recorder, traced bool) (*iteration, error) {
	setupStart := time.Now()
	it, err := wl.setup(ctx, rec, traced)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	it.setup = time.Since(setupStart)
	var lane *Lane
	if traced {
		lane = rec.Lane()
	}
	runtime.GC()
	s0 := takeSnap()
	hp := startHeapPeak()
	err = wl.run(ctx, it, lane)
	it.peak = hp.Stop()
	s1 := takeSnap()
	it.close()
	if lane != nil {
		lane.Flush()
	}
	if err != nil {
		it.release()
		return nil, fmt.Errorf("sweep: %w", err)
	}
	it.wall = s1.at.Sub(s0.at)
	it.cpu = s1.cpu - s0.cpu
	it.mallocs = s1.mallocs - s0.mallocs
	it.gcs = s1.gcs - s0.gcs
	it.pause = time.Duration(s1.pauseNs - s0.pauseNs)
	it.digest, it.checkErr = verifySweep(it)
	return it, nil
}

// digestNote compares the run's digest with the one recorded for the
// default seed, so a silent change of the model's output shows; ok is
// false on a mismatch.
func digestNote(o options, digest string) (note string, ok bool) {
	if o.seed != 1 || o.size != "full" {
		return "digest " + digest, true
	}
	var recorded map[string]string
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		return "digests.json: " + err.Error(), false
	}
	switch want, found := recorded[o.workload]; {
	case !found:
		return "digest " + digest + " (none recorded for this workload)", true
	case want != digest:
		return "digest " + digest + " differs from the recorded seed-1 digest " + want + ": the model's output changed", false
	}
	return "digest " + digest + " matches the recorded seed-1 digest", true
}

func untraced(its []*iteration) []*iteration {
	var out []*iteration
	for _, it := range its {
		if !it.traced {
			out = append(out, it)
		}
	}
	return out
}

// minSetups is the least number of set-ups setup_s is the median of.
const minSetups = 9

// extraSetups sets the workload up and tears it down again, without a
// sweep, until there are minSetups set-up times or the next one would
// take the time spent on them past budget. It returns the new times.
func extraSetups(ctx context.Context, wl workload, have []float64, budget time.Duration) ([]float64, error) {
	var out []float64
	var spent time.Duration
	next := time.Duration(median(have) * float64(time.Second))
	for len(have)+len(out) < minSetups && spent+next <= budget {
		start := time.Now()
		it, err := wl.setup(ctx, nil, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		next = time.Since(start)
		it.close()
		it.release()
		spent += next
		out = append(out, next.Seconds())
	}
	return out, nil
}

func endToEndMetrics(m map[string]metricValue, its []*iteration, setup []float64) {
	var wall, cpu, allocs, peak []float64
	for _, it := range its {
		wall = append(wall, it.wall.Seconds())
		cpu = append(cpu, it.cpu.Seconds())
		allocs = append(allocs, ratio(float64(it.mallocs), float64(it.resolved())))
		peak = append(peak, float64(it.peak)/(1<<20))
	}
	put := func(name string, xs []float64) { m[name] = metricValue{median(xs), unitOf(endToEnd, name)} }
	put("setup_s", setup)
	put("wall_s", wall)
	put("cpu_s", cpu)
	put("allocs_per_rep", allocs)
	put("peak_heap_mb", peak)
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undefined metric " + name)
}

func report(w io.Writer, o options, its []*iteration, notes []string, res result) {
	nu := len(untraced(its))
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d size=%s trace=%v sweeps=%d (untraced %d, traced %d)\n",
		o.workload, o.seed, o.size, o.trace, len(its), nu, len(its)-nu)
	for i, it := range its {
		fmt.Fprintf(w, "# sweep %d traced=%v setup=%.3fs wall=%.3fs cpu=%.3fs reps=%d (simulated %d, cache hits %d) allocs=%d peak_heap=%.1fMB gc=%d\n",
			i, it.traced, it.setup.Seconds(), it.wall.Seconds(), it.cpu.Seconds(), it.resolved(), it.executed, it.hits,
			it.mallocs, float64(it.peak)/(1<<20), it.gcs)
	}
	for _, n := range notes {
		fmt.Fprintln(w, "# "+n)
	}
	fmt.Fprintf(w, "# failed_frac %.6g ratio (%d failed of %d attempted)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	defs := endToEnd
	if o.trace {
		defs = perLayerDefs()
	}
	for _, d := range defs {
		v := res.Metrics[d.name]
		fmt.Fprintf(w, "%-36s %14.6g %s\n", d.name, v.Value, v.Unit)
	}
}

func printLayers(w io.Writer, lts []layerTime) {
	fmt.Fprintf(w, "# %-32s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, lt := range lts {
		fmt.Fprintf(w, "# %-32s %9d %12.3f %12.3f\n", lt.Name, lt.Count,
			float64(lt.Total)/float64(time.Millisecond), float64(lt.Self)/float64(time.Millisecond))
	}
}
