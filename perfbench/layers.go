package main

import "time"

// perLayer fills the per-layer metrics of a traced run. Layers a workload
// does not exercise (HTTP and multicell on the loopback workloads) read 0.
func perLayer(m map[string]metricValue, its []*iteration, spans []Span, fc frameCounters) {
	defs := perLayerDefs()
	put := func(name string, v float64) { m[name] = metricValue{v, unitOf(defs, name)} }
	us, ms := time.Microsecond, time.Millisecond
	q := func(name string, unit time.Duration, p float64) float64 {
		return quantile(durations(spans, name, unit), p)
	}

	for _, p := range protoKeys {
		put("mac."+p+".run_frame_us_p50", q("mac."+p+".run_frame", us, 0.5))
		put("mac."+p+".run_frame_us_p99", q("mac."+p+".run_frame", us, 0.99))
	}
	put("mac.begin_frame_us_p50", q("mac.begin_frame", us, 0.5))
	put("mac.begin_frame_us_p99", q("mac.begin_frame", us, 0.99))
	put("mac.end_frame_us_p50", q("mac.end_frame", us, 0.5))
	put("mac.end_frame_us_p99", q("mac.end_frame", us, 0.99))
	put("mac.cand_hit_ratio", ratio(float64(fc.candHits), float64(fc.candHits+fc.candMisses)))
	put("mac.wheel_wakes_per_frame", ratio(float64(fc.wheelWakes), float64(fc.frames)))
	put("mac.epoch_bumps_per_frame", ratio(float64(fc.epochBumps), float64(fc.frames)))
	put("mac.result_us", q("mac.result", us, 0.5))
	put("sim.events_per_rep", ratio(float64(fc.events), float64(fc.reps)))
	put("sim.frame_event_ns", frameEventNs())
	put("core.build_us_p50", q("core.build", us, 0.5))
	put("core.materialized_per_rep", ratio(float64(fc.materialized), float64(fc.reps)))

	// Replication times come from the grid's own RunRep calls where the
	// benchmark can see them (loopback), else from the output check's
	// sequential re-executions (corpus-remote runs them on the worker).
	repName := func(layer string) string {
		if len(durations(spans, layer, ms)) > 0 {
			return layer
		}
		return "reference." + layer
	}
	put("core.rep_ms_p50", q(repName("core.rep"), ms, 0.5))
	put("core.rep_ms_p90", q(repName("core.rep"), ms, 0.9))
	put("rng.reseed_us", reseedMicros())
	put("multicell.rep_ms_p50", q(repName("multicell.rep"), ms, 0.5))
	put("multicell.rep_ms_p90", q(repName("multicell.rep"), ms, 0.9))

	put("grid.session_new_ms", q("grid.session_new", ms, 0.5))
	put("grid.next_wait_us_p50", q("grid.next_wait", us, 0.5))
	put("grid.next_wait_us_p90", q("grid.next_wait", us, 0.9))
	put("grid.complete_us_p50", q("grid.complete", us, 0.5))
	put("grid.complete_us_p90", q("grid.complete", us, 0.9))
	put("grid.results_ms", q("grid.results", ms, 0.5))
	put("grid.scenario_load_ms", q("grid.scenario_load", ms, 0.5))

	// Counters are per traced sweep, averaged over the traced sweeps;
	// latency samples are pooled.
	var tr []*iteration
	for _, it := range its {
		if it.traced {
			tr = append(tr, it)
		}
	}
	n := float64(len(tr))
	var executed, hits, requeues, dHits, dMiss, dCorrupt, dPutErr float64
	var requests, empty, beats, retries, failed, polls, tasks float64
	var taskMs, resultMs, turnaround []float64
	var tracedWall []float64
	for _, it := range tr {
		executed += float64(it.executed)
		hits += float64(it.hits)
		requeues += float64(it.requeues)
		dHits += float64(it.cacheStats.DiskHits)
		dMiss += float64(it.cacheStats.DiskMisses)
		dCorrupt += float64(it.cacheStats.DiskCorrupt)
		dPutErr += float64(it.cacheStats.DiskPutErrors)
		tracedWall = append(tracedWall, it.wall.Seconds())
		if mt := it.meter; mt != nil {
			mt.mu.Lock()
			requests += float64(mt.requests)
			empty += float64(mt.emptyPolls)
			beats += float64(mt.heartbeats)
			retries += float64(mt.retries)
			failed += float64(mt.failed)
			polls += float64(mt.taskPolls)
			tasks += float64(mt.tasks)
			taskMs = append(taskMs, mt.taskMs...)
			resultMs = append(resultMs, mt.resultMs...)
			turnaround = append(turnaround, mt.turnaround...)
			mt.mu.Unlock()
		}
	}
	put("grid.executed", ratio(executed, n))
	put("grid.cache_hits", ratio(hits, n))
	put("grid.requeues", ratio(requeues, n))
	put("grid.disk_hits", ratio(dHits, n))
	put("grid.disk_misses", ratio(dMiss, n))
	put("grid.disk_corrupt", ratio(dCorrupt, n))
	put("grid.disk_put_errors", ratio(dPutErr, n))
	put("grid.http_task_ms_p50", quantile(taskMs, 0.5))
	put("grid.http_task_ms_p90", quantile(taskMs, 0.9))
	put("grid.http_result_ms_p50", quantile(resultMs, 0.5))
	put("grid.http_result_ms_p90", quantile(resultMs, 0.9))
	put("grid.http_requests", ratio(requests, n))
	put("grid.http_empty_polls", ratio(empty, n))
	put("grid.http_heartbeats", ratio(beats, n))
	put("grid.http_retries", ratio(retries, n))
	put("grid.http_failed", ratio(failed, n))
	put("grid.claim_yield", ratio(tasks, polls))
	put("task_ms_p50", quantile(turnaround, 0.5))
	put("task_ms_p90", quantile(turnaround, 0.9))
	put("task_samples", float64(len(turnaround)))

	var panel, gcs, pause, wall []float64
	for _, it := range untraced(its) {
		panel = append(panel, it.panelS...)
		gcs = append(gcs, float64(it.gcs))
		pause = append(pause, float64(it.pause)/float64(ms))
		wall = append(wall, it.wall.Seconds())
	}
	put("experiments.panel_s", median(panel))
	put("runtime.gc_cycles", median(gcs))
	put("runtime.gc_pause_ms", median(pause))
	uw, tw := median(wall), median(tracedWall)
	put("trace.untraced_wall_s", uw)
	put("trace.traced_wall_s", tw)
	put("trace.sweep_overhead_frac", ratio(tw-uw, uw))
	put("trace.frame_overhead_frac", ratio(float64(fc.traced-fc.plain), float64(fc.plain)))
	put("trace.span_pair_ns", spanPairNs())
	put("trace.spans", float64(len(spans)))
}
