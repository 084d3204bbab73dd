// Benchmark harness: one target per table/figure of the paper's evaluation
// plus the DESIGN.md §5 ablations and substrate micro-benchmarks.
//
// The figure benches regenerate each panel at reduced effort (short
// measurement windows, thinned sweeps) so `go test -bench=.` stays in CI
// time while preserving the shape of every result; the cmd/charisma-
// experiments binary runs the same panels at publication effort. Loss
// rates, capacities and delays are exported through b.ReportMetric so the
// shapes are visible directly in the benchmark output.
package charisma

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"charisma/internal/channel"
	"charisma/internal/core"
	"charisma/internal/experiments"
	"charisma/internal/mac"
	"charisma/internal/multicell"
	"charisma/internal/phy"
	"charisma/internal/rng"
	"charisma/internal/sim"
)

// benchRunConfig trims each sweep point to 2 measured seconds.
func benchRunConfig() experiments.RunConfig {
	return experiments.RunConfig{Seed: 1, WarmupSec: 0.5, DurationSec: 2}
}

// benchPanel regenerates one Fig. 11/12/13 panel at bench effort and
// reports a representative shape metric.
func benchPanel(b *testing.B, spec experiments.PanelSpec) {
	b.Helper()
	rc := benchRunConfig()
	for i := 0; i < b.N; i++ {
		panel, err := experiments.RunPanel(context.Background(), spec, rc)
		if err != nil {
			b.Fatal(err)
		}
		if spec.Figure == 11 {
			caps := experiments.Capacity(panel, 0.01)
			if c := caps[core.ProtoCharisma]; c == c { // skip NaN
				b.ReportMetric(c, "charisma-capacity-users")
			}
		} else {
			for _, s := range panel.Series {
				if s.Label == core.ProtoCharisma && len(s.Y) > 0 {
					b.ReportMetric(s.Y[len(s.Y)-1], "charisma-final-y")
				}
			}
		}
	}
}

// --- Table 1 -------------------------------------------------------------

func BenchmarkTable1Defaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Fig. 5 and Fig. 7 (model figures) ------------------------------------

func BenchmarkFig5FadingTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := experiments.FadingTrace(1, 2.0)
		if len(tr) == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkFig7ABICMCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.ABICMCurves(181)
		if len(pts) != 181 {
			b.Fatal("bad curve")
		}
	}
}

// --- Fig. 11: voice packet loss panels (a)–(f) -----------------------------

func BenchmarkFig11a_VoiceLoss_NoQueue_Nd0(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig11a", Figure: 11, Fixed: 0, Queue: false})
}

func BenchmarkFig11b_VoiceLoss_Queue_Nd0(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig11b", Figure: 11, Fixed: 0, Queue: true})
}

func BenchmarkFig11c_VoiceLoss_NoQueue_Nd10(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig11c", Figure: 11, Fixed: 10, Queue: false})
}

func BenchmarkFig11d_VoiceLoss_Queue_Nd10(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig11d", Figure: 11, Fixed: 10, Queue: true})
}

func BenchmarkFig11e_VoiceLoss_NoQueue_Nd20(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig11e", Figure: 11, Fixed: 20, Queue: false})
}

func BenchmarkFig11f_VoiceLoss_Queue_Nd20(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig11f", Figure: 11, Fixed: 20, Queue: true})
}

// --- Fig. 12: data throughput panels (a)–(f) -------------------------------

func BenchmarkFig12a_DataThroughput_NoQueue_Nv0(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig12a", Figure: 12, Fixed: 0, Queue: false})
}

func BenchmarkFig12b_DataThroughput_Queue_Nv0(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig12b", Figure: 12, Fixed: 0, Queue: true})
}

func BenchmarkFig12c_DataThroughput_NoQueue_Nv10(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig12c", Figure: 12, Fixed: 10, Queue: false})
}

func BenchmarkFig12d_DataThroughput_Queue_Nv10(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig12d", Figure: 12, Fixed: 10, Queue: true})
}

func BenchmarkFig12e_DataThroughput_NoQueue_Nv20(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig12e", Figure: 12, Fixed: 20, Queue: false})
}

func BenchmarkFig12f_DataThroughput_Queue_Nv20(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig12f", Figure: 12, Fixed: 20, Queue: true})
}

// --- Fig. 13: data delay panels (a)–(f) ------------------------------------

func BenchmarkFig13a_DataDelay_NoQueue_Nv0(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig13a", Figure: 13, Fixed: 0, Queue: false})
}

func BenchmarkFig13b_DataDelay_Queue_Nv0(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig13b", Figure: 13, Fixed: 0, Queue: true})
}

func BenchmarkFig13c_DataDelay_NoQueue_Nv10(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig13c", Figure: 13, Fixed: 10, Queue: false})
}

func BenchmarkFig13d_DataDelay_Queue_Nv10(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig13d", Figure: 13, Fixed: 10, Queue: true})
}

func BenchmarkFig13e_DataDelay_NoQueue_Nv20(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig13e", Figure: 13, Fixed: 20, Queue: false})
}

func BenchmarkFig13f_DataDelay_Queue_Nv20(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig13f", Figure: 13, Fixed: 20, Queue: true})
}

// --- §5.3.3: mobile speed sensitivity --------------------------------------

func BenchmarkSpeedSweep(b *testing.B) {
	rc := benchRunConfig()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.SpeedSweep(context.Background(), 60, []float64{10, 50, 80}, rc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*pts[len(pts)-1].VoiceLoss, "loss-at-80kmh-%")
	}
}

// --- Ablations (DESIGN.md §5) ----------------------------------------------

func ablationCell(mutate func(*core.Scenario)) (float64, error) {
	sc := core.DefaultScenario(core.ProtoCharisma)
	sc.NumVoice = 90
	sc.WarmupSec = 0.5
	sc.DurationSec = 2
	if mutate != nil {
		mutate(&sc)
	}
	r, err := sc.Run()
	return r.VoiceLossRate, err
}

// BenchmarkAblationPriorityWeights isolates the CSI term of eq. (2):
// alpha=0 degrades CHARISMA to channel-blind urgency scheduling.
func BenchmarkAblationPriorityWeights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with, err := ablationCell(nil)
		if err != nil {
			b.Fatal(err)
		}
		blind, err := ablationCell(func(sc *core.Scenario) { sc.MAC.Charisma.Alpha = 0 })
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*with, "loss-csi-%")
		b.ReportMetric(100*blind, "loss-blind-%")
	}
}

// BenchmarkAblationCSIRefresh disables the §4.4 polling subframe.
func BenchmarkAblationCSIRefresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with, err := ablationCell(nil)
		if err != nil {
			b.Fatal(err)
		}
		without, err := ablationCell(func(sc *core.Scenario) { sc.MAC.Charisma.DisableCSIRefresh = true })
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*with, "loss-polling-%")
		b.ReportMetric(100*without, "loss-nopolling-%")
	}
}

// BenchmarkAblationRequestSlots sweeps the contention opportunity count —
// the design axis that explains RMAV's instability.
func BenchmarkAblationRequestSlots(b *testing.B) {
	for _, nr := range []int{2, 5, 8} {
		nr := nr
		b.Run(fmt.Sprintf("Nr=%d", nr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				loss, err := ablationCell(func(sc *core.Scenario) {
					// Keep the frame budget: request + pilot minislots
					// together stay at 10.
					sc.MAC.Geometry.CharismaRequestSlots = nr
					sc.MAC.Geometry.CharismaPilotSlots = 10 - nr
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*loss, "loss-%")
			}
		})
	}
}

// BenchmarkAblationVoiceOffset removes the static voice priority offset V.
func BenchmarkAblationVoiceOffset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with, err := ablationCell(func(sc *core.Scenario) { sc.NumData = 20 })
		if err != nil {
			b.Fatal(err)
		}
		without, err := ablationCell(func(sc *core.Scenario) {
			sc.NumData = 20
			sc.MAC.Charisma.VoiceOffset = 0
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*with, "loss-offsetV-%")
		b.ReportMetric(100*without, "loss-noOffset-%")
	}
}

// BenchmarkAblationFairness compares eq. (2)'s absolute CSI ranking with
// the §6 channel-capacity-fair variant (FairnessExponent=1).
func BenchmarkAblationFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		absolute, err := ablationCell(nil)
		if err != nil {
			b.Fatal(err)
		}
		fair, err := ablationCell(func(sc *core.Scenario) {
			sc.MAC.Charisma.FairnessExponent = 1
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*absolute, "loss-eq2-%")
		b.ReportMetric(100*fair, "loss-fair-%")
	}
}

// BenchmarkMultiCellHandoff quantifies the §6 handoff extension: long-term
// CSI attachment vs static attachment at two near-capacity cells.
func BenchmarkMultiCellHandoff(b *testing.B) {
	run := func(disable bool) float64 {
		r, err := RunMultiCell(MultiCellOptions{
			VoiceUsers:     160,
			ShadowSigmaDB:  8,
			DisableHandoff: disable,
			Seed:           1,
			Warmup:         500 * time.Millisecond,
			Duration:       3 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		return r.VoiceLossRate
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(100*run(false), "loss-handoff-%")
		b.ReportMetric(100*run(true), "loss-static-%")
	}
}

// BenchmarkAblationQueueCap varies the selection-diversity pool depth
// (§5.3.2).
func BenchmarkAblationQueueCap(b *testing.B) {
	for _, cap := range []int{4, 32, 128} {
		cap := cap
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				loss, err := ablationCell(func(sc *core.Scenario) {
					sc.UseQueue = true
					sc.MAC.QueueCap = cap
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*loss, "loss-%")
			}
		})
	}
}

// --- substrate micro-benchmarks --------------------------------------------

// BenchmarkEngineScheduleEvery measures the frame clock: one recurring
// event re-armed per tick, the pattern Scenario.Run uses for the TDMA
// cadence.
func BenchmarkEngineScheduleEvery(b *testing.B) {
	e := sim.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		e.ScheduleEvery(e.Now(), func(*sim.Engine) sim.Time {
			n++
			if n >= 1000 {
				return -1
			}
			return 800
		})
		e.Run()
	}
}

// BenchmarkScenarioRun tracks the end-to-end allocation footprint of a
// complete (short) scenario run — the unit the sweep grid fans out by
// the thousand.
func BenchmarkScenarioRun(b *testing.B) {
	sc := core.DefaultScenario(core.ProtoCharisma)
	sc.NumVoice, sc.NumData = 30, 5
	sc.WarmupSec, sc.DurationSec = 0.25, 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// Package-level benchmark sinks: results are stored where the compiler can
// see them escape, so dead-store elimination cannot elide the measured
// work. Every micro-benchmark whose result would otherwise be discarded
// writes through one of these.
var (
	benchSinkMode phy.Mode
	benchSinkF    float64
)

func BenchmarkFadingAdvance(b *testing.B) {
	f := channel.NewFading(channel.DefaultParams(), rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Advance(800)
	}
	// Read the advanced state through the sink so the loop is not dead.
	benchSinkF = f.Amplitude()
}

func BenchmarkChannelBankFrame(b *testing.B) {
	bank := channel.NewBank(100, channel.DefaultParams(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Advance(800)
	}
	for u := 0; u < bank.Size(); u++ {
		benchSinkF += bank.User(u).Amplitude()
	}
}

// BenchmarkChannelBankQuery measures the per-query amplitude cost the MAC
// schedulers pay between advances — memoized per step on the plane, where
// the scalar implementation re-paid a dB→linear exp plus a Hypot per call.
func BenchmarkChannelBankQuery(b *testing.B) {
	bank := channel.NewBank(100, channel.DefaultParams(), 1)
	bank.Advance(800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := 0.0
		for u := 0; u < 100; u++ {
			s += bank.User(u).Amplitude()
		}
		benchSinkF = s
	}
}

// BenchmarkChannelReplayCatchUp measures the lazy-replay catch-up of a
// long-idle station: 400 deferred frames (one second) settled in one
// batched AdvanceSteps call.
func BenchmarkChannelReplayCatchUp(b *testing.B) {
	f := channel.NewFading(channel.DefaultParams(), rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AdvanceSteps(800, 400)
	}
	benchSinkF = f.Amplitude()
}

func BenchmarkModeSelection(b *testing.B) {
	a := phy.NewAdaptive(phy.DefaultParams())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		amp := 0.01 + float64(i%100)*0.05
		benchSinkMode = a.ModeForAmplitude(amp)
	}
}

// BenchmarkFrame — per-frame cost vs active-vs-total population at 10⁴
// stations — lives beside the station registry it exercises:
// internal/mac/registry_invariant_test.go.

// BenchmarkIdleCellPopulation and BenchmarkIdleWakeCell — population
// scaling of million-station lazy cells — live beside their tests in
// internal/mac/population_test.go.

// BenchmarkMulticellSharded measures an 8-cell deployment advancing on 1
// worker vs one per core: cells synchronize only at handoff decision
// epochs, so wall-clock should scale down with cores while the numbers
// stay byte-identical (TestShardedDeterminismAcrossWorkerCounts).
func BenchmarkMulticellSharded(b *testing.B) {
	for _, w := range []int{1, runtime.NumCPU()} {
		w := w
		b.Run(fmt.Sprintf("cells=8/workers=%d", w), func(b *testing.B) {
			p := multicell.DefaultParams()
			p.Cells = 8
			p.NumVoice = 320
			p.Workers = w
			p.WarmupSec, p.DurationSec = 0.25, 1.5
			for i := 0; i < b.N; i++ {
				// Run consumes the deployment, so it is rebuilt per
				// iteration — but construction (2.5k station clones,
				// fading init) must not dilute the sharded frame loop
				// this benchmark compares across worker counts.
				b.StopTimer()
				d, err := multicell.New(p)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := d.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestActiveFrameSteadyStateAllocs is the allocs/op regression guard on
// the *active*-cell frame path, complementing the idle-cell
// TestFrameHotPathAllocs in internal/mac: once the request free list and
// the schedulers' candidate scratch reach their high-water marks, a frame
// of every protocol — with and without the BS request queue — must not
// allocate at all. Each measured run is one whole simulated second
// (hundreds of frames), not one frame: testing.AllocsPerRun floors the
// per-run mean, so a per-frame form reads 0 even for a leak of hundreds
// of allocations per simulated second. The floor does forgive rare allocations: voice
// buffers, data burst queues and timer-wheel buckets keep reaching new
// high-water marks for minutes of simulated time, ever more rarely. So the
// warm-up runs 90 simulated seconds and the mean is taken over 60 more,
// where that growth stays near 0.5 allocations per simulated second.
// Every protocol runs at 60v+10d; CHARISMA also runs at 160 voice users,
// where its candidate pool, ranking keys and request queue are large.
func TestActiveFrameSteadyStateAllocs(t *testing.T) {
	type leg struct {
		proto  string
		nv, nd int
	}
	var legs []leg
	for _, p := range core.Protocols() {
		legs = append(legs, leg{p, 60, 10})
	}
	legs = append(legs, leg{core.ProtoCharisma, 160, 0})
	for _, l := range legs {
		for _, q := range []bool{false, true} {
			sc := core.DefaultScenario(l.proto)
			sc.NumVoice, sc.NumData = l.nv, l.nd
			sc.UseQueue = q
			sys, proto, err := sc.Build()
			if err != nil {
				t.Fatal(err)
			}
			proto.Init(sys)
			simulate := func(d sim.Time) {
				for limit := sys.Now() + d; sys.Now() < limit; {
					sys.BeginFrame()
					sys.EndFrame(proto.RunFrame(sys))
				}
			}
			simulate(90 * sim.Second)
			avg := testing.AllocsPerRun(60, func() { simulate(sim.Second) })
			if avg != 0 {
				t.Errorf("%s %dv+%dd queue=%v: %.0f allocs per simulated second at steady state, want 0", l.proto, l.nv, l.nd, q, avg)
			}
		}
	}
}

// TestObsOffHotPathAllocs is the observability cost gate: with no
// observer attached (no trace recorder, no flight recorder) the
// always-compiled-in obs.SimCounters must be invisible — the
// steady-state frame path stays at exactly 0 allocs/op while the
// counters demonstrably advance. If instrumentation ever grows an
// allocation or an atomic on the frame path, this fails before any
// golden or bench gate does.
func TestObsOffHotPathAllocs(t *testing.T) {
	sc := core.DefaultScenario(core.ProtoCharisma)
	sc.NumVoice, sc.NumData = 60, 10
	sys, proto, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	proto.Init(sys)
	for f := 0; f < 2000; f++ {
		sys.BeginFrame()
		sys.EndFrame(proto.RunFrame(sys))
	}
	before := *sys.Obs()
	avg := testing.AllocsPerRun(2000, func() {
		sys.BeginFrame()
		sys.EndFrame(proto.RunFrame(sys))
	})
	if avg != 0 {
		t.Errorf("%.4f allocs/frame with live counters, want 0", avg)
	}
	after := *sys.Obs()
	if after.WheelArms <= before.WheelArms {
		t.Error("WheelArms did not advance across 2000 active frames")
	}
	if after.CandHits+after.CandMisses <= before.CandHits+before.CandMisses {
		t.Error("candidate-cache counters did not advance")
	}
}

// obsBenchSink keeps the per-frame counter read in BenchmarkObsOffFrame
// from being optimized away.
var obsBenchSink uint64

// BenchmarkObsOffFrame is BenchmarkCharismaFrame plus a counter read per
// frame; TestObsOffHotPathAllocs holds the same frame path to zero
// allocations to prove observability rides along for free.
func BenchmarkObsOffFrame(b *testing.B) {
	sc := core.DefaultScenario(core.ProtoCharisma)
	sc.NumVoice, sc.NumData = 60, 10
	sys, proto, err := sc.Build()
	if err != nil {
		b.Fatal(err)
	}
	proto.Init(sys)
	for f := 0; f < 2000; f++ {
		sys.BeginFrame()
		sys.EndFrame(proto.RunFrame(sys))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sys.BeginFrame()
		sys.EndFrame(proto.RunFrame(sys))
		sink += sys.Obs().WheelArms
	}
	obsBenchSink = sink
}

// BenchmarkCharismaFrame times one CHARISMA frame at two loads: the
// mixed 60v+10d cell the other frame benchmarks use, and a 160-voice
// cell whose frames gather, rank and poll far more candidates.
func BenchmarkCharismaFrame(b *testing.B) {
	for _, l := range []struct{ nv, nd int }{{60, 10}, {160, 0}} {
		b.Run(fmt.Sprintf("%dv+%dd", l.nv, l.nd), func(b *testing.B) {
			sc := core.DefaultScenario(core.ProtoCharisma)
			sc.NumVoice, sc.NumData = l.nv, l.nd
			sys, proto, err := sc.Build()
			if err != nil {
				b.Fatal(err)
			}
			proto.Init(sys)
			// Warm up past the transient: the request free list and the
			// scheduler's candidate scratch reach their high-water marks
			// within a few talkspurt cycles, after which the frame path is
			// allocation-free (TestActiveFrameSteadyStateAllocs and
			// TestObsOffHotPathAllocs hold this steady state to zero
			// allocations).
			for f := 0; f < 2000; f++ {
				sys.BeginFrame()
				sys.EndFrame(proto.RunFrame(sys))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.BeginFrame()
				sys.EndFrame(proto.RunFrame(sys))
			}
		})
	}
}

func BenchmarkSimulatedSecondAllProtocols(b *testing.B) {
	for _, p := range core.Protocols() {
		p := p
		b.Run(p, func(b *testing.B) {
			sc := core.DefaultScenario(p)
			sc.NumVoice, sc.NumData = 50, 10
			sys, proto, err := sc.Build()
			if err != nil {
				b.Fatal(err)
			}
			proto.Init(sys)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				limit := sys.Now() + sim.Second
				for sys.Now() < limit {
					sys.BeginFrame()
					sys.EndFrame(proto.RunFrame(sys))
				}
			}
		})
	}
}

// Guard: the bench file shares the package with the public API; keep the
// compile-time references honest.
var (
	_ = Options{}
	_ = mac.KindVoice
	_ = time.Second
)
