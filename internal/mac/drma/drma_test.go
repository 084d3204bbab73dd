package drma_test

import (
	"testing"

	"charisma/internal/core"
	"charisma/internal/mac"
	"charisma/internal/mac/drma"
)

func build(t *testing.T, nv, nd int, queue bool) (*mac.System, mac.Protocol) {
	t.Helper()
	sc := core.DefaultScenario(core.ProtoDRMA)
	sc.NumVoice, sc.NumData = nv, nd
	sc.UseQueue = queue
	sys, p, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	p.Init(sys)
	return sys, p
}

func runFrames(sys *mac.System, p mac.Protocol, n int) {
	for i := 0; i < n; i++ {
		sys.BeginFrame()
		sys.EndFrame(p.RunFrame(sys))
	}
}

func TestName(t *testing.T) {
	if drma.New().Name() != "drma" {
		t.Fatal("name wrong")
	}
}

func TestUsesFixedPHY(t *testing.T) {
	sys, _ := build(t, 1, 0, false)
	if sys.PHY.Name() != "fixed" {
		t.Fatal("DRMA must run on the fixed PHY")
	}
}

func TestBudgetIsFiveSlots(t *testing.T) {
	sys, p := build(t, 10, 0, false)
	runFrames(sys, p, 100)
	want := uint64(100 * 5 * sys.Cfg.Geometry.InfoSlotSymbols)
	if got := sys.M.InfoSymbolsTotal.Total(); got != want {
		t.Fatalf("budget %d, want %d (Nk=5 slots, no request subframe)", got, want)
	}
}

func TestBudgetNeverExceeded(t *testing.T) {
	sys, p := build(t, 60, 10, true)
	runFrames(sys, p, 2000)
	if used, total := sys.M.InfoSymbolsUsed.Total(), sys.M.InfoSymbolsTotal.Total(); used > total {
		t.Fatalf("used %d of %d", used, total)
	}
}

// The defining DRMA property: contention happens only via idle-slot
// conversion, so the request load is structurally bounded and the slots
// keep carrying traffic even at overload (no thrashing, §5.1).
func TestContentionThrottledAtSaturation(t *testing.T) {
	sys, p := build(t, 200, 0, false)
	g := sys.Cfg.Geometry
	prev := uint64(0)
	for i := 0; i < 2000; i++ {
		sys.BeginFrame()
		sys.EndFrame(p.RunFrame(sys))
		attempts := sys.M.ReqAttempts.Total() - prev
		// Hard structural bound: Nx minislots per converted slot, and at
		// most Nk conversions per frame.
		if attempts > uint64(g.DRMAInfoSlots*g.DRMAMinislotsPerSlot*200) {
			t.Fatalf("frame %d: %d attempts — conversion bound broken", i, attempts)
		}
		prev = sys.M.ReqAttempts.Total()
	}
	r := sys.M.Result("drma", g.FrameSymbols)
	// The frame keeps moving traffic at 3x capacity instead of collapsing
	// into wall-to-wall contention.
	if r.InfoUtilization < 0.6 {
		t.Fatalf("utilization %.2f at overload — thrashing", r.InfoUtilization)
	}
	if r.VoiceDelivered == 0 {
		t.Fatal("nothing delivered at overload")
	}
}

// Winners persist as dynamic reservations until a slot frees (the behaviour
// the protocol is named after), so admission works even when conversions
// only happen in the frame's last slot.
func TestWinnersEventuallyAdmittedUnderLoad(t *testing.T) {
	sys, p := build(t, 70, 0, false)
	runFrames(sys, p, 8000) // 20 s
	if sys.M.ReservationsGranted.Total() < 100 {
		t.Fatalf("only %d reservations in 20 s at Nv=70 — admission starving",
			sys.M.ReservationsGranted.Total())
	}
}

func TestPendingStationsDoNotRecontend(t *testing.T) {
	sys, p := build(t, 80, 20, false)
	for i := 0; i < 2000; i++ {
		sys.BeginFrame()
		sys.EndFrame(p.RunFrame(sys))
		for _, st := range sys.Stations {
			if st.PendingAtBS() && sys.NeedsVoiceRequest(st) {
				t.Fatal("pending station passes NeedsVoiceRequest")
			}
		}
	}
}

func TestQueueBarelyChangesDRMA(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Paper §5.1: adding a request queue improves DRMA only slightly —
	// its inherent distributed queueing already covers the need.
	run := func(queue bool) float64 {
		sc := core.DefaultScenario(core.ProtoDRMA)
		sc.NumVoice = 70
		sc.UseQueue = queue
		sc.WarmupSec = 1
		sc.DurationSec = 8
		r, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.VoiceLossRate
	}
	noQ, withQ := run(false), run(true)
	diff := noQ - withQ
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.02 {
		t.Fatalf("queue changed DRMA loss by %.4f — should be slight (%.4f vs %.4f)", diff, noQ, withQ)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() mac.Result {
		sys, p := build(t, 25, 5, false)
		runFrames(sys, p, 1000)
		return sys.M.Result("drma", sys.Cfg.Geometry.FrameSymbols)
	}
	if run() != run() {
		t.Fatal("not deterministic")
	}
}
