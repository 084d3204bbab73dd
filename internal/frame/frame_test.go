package frame

import (
	"testing"

	"charisma/internal/sim"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFrameIs800SymbolsAnd2500us(t *testing.T) {
	g := Default()
	if g.FrameSymbols != 800 {
		t.Fatalf("frame = %d symbols, want 800 (320 kHz x 2.5 ms)", g.FrameSymbols)
	}
	if g.Duration() != 800 {
		t.Fatalf("duration = %v ticks", g.Duration())
	}
	if g.Duration().Milliseconds() != 2.5 {
		t.Fatalf("frame duration = %v ms, want 2.5 (Table 1)", g.Duration().Milliseconds())
	}
}

func TestCharismaBudgetExactly800(t *testing.T) {
	g := Default()
	total := (g.CharismaRequestSlots+g.CharismaPilotSlots)*g.MinislotSymbols + g.CharismaInfoSymbols()
	if total != g.FrameSymbols {
		t.Fatalf("CHARISMA layout = %d symbols, want %d", total, g.FrameSymbols)
	}
	if g.CharismaInfoSymbols() != 640 {
		t.Fatalf("info subframe = %d symbols, want 640 (4 slot-equivalents)", g.CharismaInfoSymbols())
	}
}

func TestDTDMABudgetFits(t *testing.T) {
	g := Default()
	used := g.DTDMARequestSlots*g.MinislotSymbols + g.DTDMAInfoSlots*g.InfoSlotSymbols
	if used > g.FrameSymbols {
		t.Fatalf("D-TDMA layout = %d symbols > %d", used, g.FrameSymbols)
	}
	// Nr "slightly larger" than the slot-equivalent count of the info
	// subframe (paper §4.3).
	if g.DTDMARequestSlots <= g.DTDMAInfoSlots {
		t.Fatal("request slots should outnumber info slots")
	}
}

func TestRAMABudgetFits(t *testing.T) {
	g := Default()
	used := g.RAMAAuctionSlots*g.RAMAAuctionSymbols + g.RAMAInfoSlots*g.InfoSlotSymbols
	if used > g.FrameSymbols {
		t.Fatalf("RAMA layout = %d symbols > %d", used, g.FrameSymbols)
	}
	// An auction slot is larger than a request minislot (§3.1).
	if g.RAMAAuctionSymbols <= g.MinislotSymbols {
		t.Fatal("auction slot should exceed a request minislot")
	}
}

func TestDRMABudgetFits(t *testing.T) {
	g := Default()
	if g.DRMAInfoSlots*g.InfoSlotSymbols > g.FrameSymbols {
		t.Fatal("DRMA layout exceeds frame")
	}
	// DRMA devotes the whole frame to info slots: that is its edge.
	if g.DRMAInfoSlots <= g.DTDMAInfoSlots {
		t.Fatal("DRMA should carry more info slots than D-TDMA")
	}
	// A converted slot yields Nx minislots that fit inside one slot.
	if g.DRMAMinislotsPerSlot*g.MinislotSymbols > g.InfoSlotSymbols {
		t.Fatal("Nx minislots overflow a converted slot")
	}
}

func TestRMAVFrameDuration(t *testing.T) {
	g := Default()
	if got := g.RMAVFrameDuration(0); got != sim.Time(g.InfoSlotSymbols) {
		t.Fatalf("idle RMAV frame = %v, want one competitive slot", got)
	}
	if got := g.RMAVFrameDuration(3); got != sim.Time(4*g.InfoSlotSymbols) {
		t.Fatalf("3-slot RMAV frame = %v", got)
	}
}

func TestVoicePeriodIsEightFrames(t *testing.T) {
	g := Default()
	if g.VoicePeriod != 8*g.Duration() {
		t.Fatalf("voice period = %v, want 8 frames of %v (20 ms / 2.5 ms)", g.VoicePeriod, g.Duration())
	}
}

func TestValidateRejectsBadLayouts(t *testing.T) {
	cases := []func(*Geometry){
		func(g *Geometry) { g.FrameSymbols = 0 },
		func(g *Geometry) { g.MinislotSymbols = -1 },
		func(g *Geometry) { g.CharismaRequestSlots = 100 }, // info subframe vanishes
		func(g *Geometry) { g.DTDMAInfoSlots = 10 },
		func(g *Geometry) { g.RAMAInfoSlots = 10 },
		func(g *Geometry) { g.DRMAInfoSlots = 10 },
		func(g *Geometry) { g.RMAVMaxGrantSlots = 0 },
		func(g *Geometry) { g.VoicePeriod = 0 },
		func(g *Geometry) { g.VoicePeriod = 900 }, // not a whole frame multiple
		// Each negative count or size below passes the budget checks
		// alone: a negative Nr or Nb enlarges CHARISMA's info subframe.
		func(g *Geometry) { g.CharismaRequestSlots = -3 },
		func(g *Geometry) { g.CharismaPilotSlots = -3 },
		func(g *Geometry) { g.CharismaGrantOverheadSymbols = -1 },
		func(g *Geometry) { g.DTDMARequestSlots = -1 },
		func(g *Geometry) { g.DTDMAInfoSlots = -1 },
		func(g *Geometry) { g.RAMAAuctionSlots = -1 },
		func(g *Geometry) { g.RAMAAuctionSymbols = -1 },
		func(g *Geometry) { g.RAMAInfoSlots = -1 },
		func(g *Geometry) { g.DRMAInfoSlots = -1 },
		func(g *Geometry) { g.DRMAMinislotsPerSlot = -1 },
	}
	for i, mutate := range cases {
		g := Default()
		mutate(&g)
		if g.Validate() == nil {
			t.Errorf("case %d: invalid geometry accepted", i)
		}
	}
}
