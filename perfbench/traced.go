package main

import (
	"time"

	"charisma/internal/grid"
	"charisma/internal/mac"
	"charisma/internal/rng"
	"charisma/internal/run"
	"charisma/internal/sim"
)

// frameCounters sums the model's own counters over the frame-traced
// replications, read through System.Obs and Engine.Obs, and the time of
// those replications with and without their frame-level spans.
type frameCounters struct {
	reps         int
	frames       int64
	candHits     uint64
	candMisses   uint64
	wheelWakes   uint64
	epochBumps   uint64
	events       uint64
	materialized int
	traced       time.Duration // replay with spans, summed over the sample
	plain        time.Duration // the same replays without spans
}

// replay re-runs one single-cell replication the way Scenario.Run does —
// Scenario.Build, Protocol.Init, one recurring frame event on a
// sim.Engine — with a span around every frame-boundary call. A nil lane
// records no spans, which gives the untraced baseline of the same path;
// a nil fc leaves the counters alone.
func replay(lane *Lane, spec grid.JobSpec, ref repRef, fc *frameCounters) (mac.Result, error) {
	sc := *spec.Scenario
	sc.Seed = run.RepSeed(sc.Seed, ref.rep)
	sc = sc.WithDefaults()
	id := repID(ref.point, ref.rep)

	root := lane.Begin("core.traced_rep", 0, id)
	o := lane.Begin("core.build", root.ID(), id)
	sys, proto, err := sc.Build()
	lane.End(o)
	if err != nil {
		return mac.Result{}, err
	}
	o = lane.Begin("mac.init", root.ID(), id)
	proto.Init(sys)
	lane.End(o)

	eng := sim.NewEngine()
	warmup := sim.FromSeconds(sc.WarmupSec)
	limit := warmup + sim.FromSeconds(sc.DurationSec)
	runFrame := "mac." + protoKey(sc.Protocol) + ".run_frame"
	marked := false
	engine := lane.Begin("sim.run", root.ID(), id)
	parent := engine.ID()
	eng.ScheduleEvery(0, func(e *sim.Engine) sim.Time {
		if !marked && sys.Now() >= warmup {
			sys.M.Mark()
			marked = true
		}
		o := lane.Begin("mac.begin_frame", parent, id)
		sys.BeginFrame()
		lane.End(o)
		o = lane.Begin(runFrame, parent, id)
		dur := proto.RunFrame(sys)
		lane.End(o)
		o = lane.Begin("mac.end_frame", parent, id)
		sys.EndFrame(dur)
		lane.End(o)
		if sys.Now() >= limit {
			return -1
		}
		return dur
	})
	eng.Run()
	lane.End(engine)
	o = lane.Begin("mac.result", root.ID(), id)
	res := sys.M.Result(proto.Name(), sys.Cfg.Geometry.FrameSymbols)
	lane.End(o)
	lane.End(root)
	if fc == nil {
		return res, nil
	}

	c := sys.Obs()
	fc.reps++
	fc.frames += sys.FrameIndex()
	fc.candHits += c.CandHits
	fc.candMisses += c.CandMisses
	fc.wheelWakes += c.WheelWakes
	fc.epochBumps += c.EpochBumps
	fc.events += eng.Obs().EngineEvents
	for _, st := range sys.Stations {
		if st.Fading() != nil {
			fc.materialized++
		}
	}
	return res, nil
}

// reseedMicros calibrates rng.Stream.Reseed, the seeding a station pays
// when it materializes: the median over batches of the mean per call.
func reseedMicros() float64 {
	const batches, perBatch = 7, 400
	s := rng.New(0)
	var per []float64
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			s.Reseed(int64(b*perBatch + i))
		}
		per = append(per, float64(time.Since(start))/float64(time.Microsecond)/perBatch)
	}
	return median(per)
}

// frameEventNs calibrates the engine's own share of a frame: a sim.Engine
// running one recurring event with an empty body, as the frame loop runs
// one. It returns the median over batches of the time per event.
func frameEventNs() float64 {
	const batches, perBatch = 7, 200000
	var per []float64
	for b := 0; b < batches; b++ {
		eng := sim.NewEngine()
		n := 0
		eng.ScheduleEvery(0, func(*sim.Engine) sim.Time {
			if n++; n == perBatch {
				return -1
			}
			return sim.Millisecond
		})
		start := time.Now()
		eng.Run()
		per = append(per, float64(time.Since(start))/perBatch)
	}
	return median(per)
}
