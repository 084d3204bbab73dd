package phy

import (
	"math"
	"testing"
	"testing/quick"

	"charisma/internal/mathx"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.Etas = nil },
		func(p *Params) { p.Etas = []float64{1, 2} }, // length mismatch
		func(p *Params) { p.TargetBER = 0 },
		func(p *Params) { p.TargetBER = 0.6 },
		func(p *Params) { p.Etas = []float64{2, 1, 3, 4, 5, 6} },
		func(p *Params) { p.ThresholdsDB = []float64{5, 0, 6, 10, 14, 18} },
		func(p *Params) { p.CSIMargin = 0 },
		func(p *Params) { p.CSIMargin = 1.5 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestSixModesWithPaperThroughputs(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	modes := a.Modes()
	if len(modes) != 6 {
		t.Fatalf("%d modes, want 6 (paper §4.2)", len(modes))
	}
	want := []float64{0.5, 1, 2, 3, 4, 5}
	for i, m := range modes {
		if m.Eta != want[i] {
			t.Fatalf("mode %d eta = %v, want %v", i, m.Eta, want[i])
		}
		if m.Index != i {
			t.Fatalf("mode index %d != %d", m.Index, i)
		}
	}
}

func TestSymbolsPerPacket(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	want := []int{320, 160, 80, 54, 40, 32}
	for i, m := range a.Modes() {
		if m.SymbolsPerPacket != want[i] {
			t.Fatalf("mode %d: %d symbols/packet, want %d", i, m.SymbolsPerPacket, want[i])
		}
	}
}

func TestHalfPacketsPerSlot(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	want := []int{1, 2, 4, 6, 8, 10}
	for i, m := range a.Modes() {
		if m.HalfPacketsPerSlot != want[i] {
			t.Fatalf("mode %d: %d half-packets/slot, want %d", i, m.HalfPacketsPerSlot, want[i])
		}
	}
}

func TestSlotsPerPacketAndPacketsPerSlot(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	m0 := a.Modes()[0]
	if m0.PacketsPerSlot() != 0 {
		t.Fatal("half-rate mode slot accounting wrong")
	}
	m3 := a.Modes()[3]
	if m3.PacketsPerSlot() != 3 {
		t.Fatal("mode 3 slot accounting wrong")
	}
}

func TestModeSelectionMonotoneInSNR(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	prop := func(rawA, rawB float64) bool {
		s1 := math.Abs(math.Mod(rawA, 1000))
		s2 := math.Abs(math.Mod(rawB, 1000))
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		m1, _ := a.ModeForSNR(s1)
		m2, _ := a.ModeForSNR(s2)
		return m1.Index <= m2.Index
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestModeSelectionAtThresholds(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	for i, m := range a.Modes() {
		got, outage := a.ModeForSNR(m.SNRThreshold)
		if got.Index != i || outage {
			t.Fatalf("at threshold of mode %d selected mode %d (outage=%v)", i, got.Index, outage)
		}
		// Just below the lowest threshold: outage.
		if i == 0 {
			_, out := a.ModeForSNR(m.SNRThreshold * 0.99)
			if !out {
				t.Fatal("below adaptation range should be outage (Fig. 7a)")
			}
		}
	}
}

func TestOutageForAmplitude(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	if !a.OutageForAmplitude(0.001) {
		t.Fatal("deep fade not flagged as outage")
	}
	if a.OutageForAmplitude(1.0) {
		t.Fatal("unit amplitude flagged as outage")
	}
}

func TestCSIMarginConservatism(t *testing.T) {
	p := DefaultParams()
	noMargin := p
	noMargin.CSIMargin = 1.0
	a := NewAdaptive(p)
	b := NewAdaptive(noMargin)
	for amp := 0.05; amp < 4; amp *= 1.07 {
		if a.ModeForAmplitude(amp).Index > b.ModeForAmplitude(amp).Index {
			t.Fatalf("margined selection more aggressive at amp=%v", amp)
		}
	}
}

func TestBERWaterfall(t *testing.T) {
	p := DefaultParams()
	a := NewAdaptive(p)
	for _, m := range a.Modes() {
		// At the adaptation threshold, the target BER is met exactly.
		if got := a.BER(m, m.SNRThreshold); math.Abs(got-p.TargetBER)/p.TargetBER > 1e-9 {
			t.Fatalf("mode %d BER at threshold = %v, want %v", m.Index, got, p.TargetBER)
		}
		// Above threshold: better. Below: worse (constant-BER operation).
		if a.BER(m, m.SNRThreshold*2) >= p.TargetBER {
			t.Fatalf("mode %d BER did not improve above threshold", m.Index)
		}
		if a.BER(m, m.SNRThreshold/2) <= p.TargetBER {
			t.Fatalf("mode %d BER did not degrade below threshold", m.Index)
		}
		if a.BER(m, 0) != 0.5 {
			t.Fatalf("mode %d BER at zero SNR = %v, want 0.5", m.Index, a.BER(m, 0))
		}
	}
}

func TestBERMonotoneDecreasingInSNR(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	m := a.Modes()[2]
	prev := 1.0
	for snr := 0.0; snr < 100; snr += 0.5 {
		b := a.BER(m, snr)
		if b > prev {
			t.Fatal("BER not monotone in SNR")
		}
		prev = b
	}
}

func TestPacketErrorProbBounds(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	prop := func(rawAmp float64, modeIdx uint8) bool {
		amp := math.Abs(math.Mod(rawAmp, 10))
		m := a.Modes()[int(modeIdx)%6]
		per := a.PacketErrorProb(m, amp)
		return per >= 0 && per <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketErrorAtThresholdIsSmall(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	for _, m := range a.Modes() {
		amp := math.Sqrt(m.SNRThreshold / a.MeanSNR())
		per := a.PacketErrorProb(m, amp)
		// 160 bits at BER 1e-5: PER ~ 0.16%.
		if per > 0.005 {
			t.Fatalf("mode %d PER at design point = %v, want < 0.5%%", m.Index, per)
		}
	}
}

// The normalized throughput realized at a given amplitude — the Fig. 7b
// staircase — is 0 in outage and the selected mode's η otherwise.
func TestThroughputStaircase(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	etaAt := func(amp float64) float64 {
		m, outage := a.ModeForSNR(amp * amp * a.MeanSNR())
		if outage {
			return 0
		}
		return m.Eta
	}
	if got := etaAt(0.001); got != 0 {
		t.Fatalf("outage throughput = %v, want 0", got)
	}
	prev := -1.0
	for amp := 0.01; amp < 10; amp *= 1.1 {
		eta := etaAt(amp)
		if eta < prev {
			t.Fatal("throughput staircase not monotone (Fig. 7b)")
		}
		prev = eta
	}
	if prev != 5 {
		t.Fatalf("max throughput = %v, want 5", prev)
	}
}

// Calibration: the adaptive PHY must offer roughly twice the fixed PHY's
// throughput under Rayleigh fading at the default mean SNR — the paper's
// §3.5 statement about D-TDMA/VR vs /FR.
func TestMeanThroughputCalibration(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	mean := a.MeanThroughputRayleigh()
	if mean < 1.8 || mean > 2.7 {
		t.Fatalf("E[eta] = %v, want ~2x the fixed rate (calibration)", mean)
	}
}

// Calibration: the fixed encoder's deep design margin keeps its average
// packet error rate under Rayleigh fading well below the 1% voice QoS
// threshold, yet clearly above the adaptive scheme's floor.
func TestFixedErrorFloorCalibration(t *testing.T) {
	f := NewFixed(DefaultParams())
	m := f.Modes()[0]
	// Integrate PER over the Rayleigh SNR distribution.
	meanSNR := f.MeanSNR()
	floor := 0.0
	const steps = 20000
	for i := 0; i < steps; i++ {
		snr := (float64(i) + 0.5) / steps * meanSNR * 8
		pdf := math.Exp(-snr/meanSNR) / meanSNR
		amp := math.Sqrt(snr / meanSNR)
		floor += f.PacketErrorProb(m, amp) * pdf * meanSNR * 8 / steps
	}
	if floor < 0.001 || floor > 0.01 {
		t.Fatalf("fixed PHY Rayleigh error floor = %v, want in [0.1%%, 1%%]", floor)
	}
}

func TestFixedPHYBasics(t *testing.T) {
	f := NewFixed(DefaultParams())
	if len(f.Modes()) != 1 {
		t.Fatal("fixed PHY should have exactly one mode")
	}
	m := f.ModeForAmplitude(100)
	if m.Eta != 1 {
		t.Fatalf("fixed mode eta = %v, want 1", m.Eta)
	}
	if m.SymbolsPerPacket != InfoSlotSymbols {
		t.Fatalf("fixed mode packet = %d symbols, want one slot", m.SymbolsPerPacket)
	}
	// Mode never changes with amplitude.
	if f.ModeForAmplitude(0.0001) != m {
		t.Fatal("fixed mode varied with amplitude")
	}
	if !f.OutageForAmplitude(0.001) || f.OutageForAmplitude(1) {
		t.Fatal("fixed PHY outage detection wrong")
	}
}

func TestAdaptiveAccessors(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	if a.Name() != "abicm" {
		t.Fatal("adaptive accessors wrong")
	}
	if got := a.MeanSNR(); math.Abs(got-mathx.DBToLinear(DefaultParams().MeanSNRdB)) > 1e-9 {
		t.Fatalf("MeanSNR = %v", got)
	}
	f := NewFixed(DefaultParams())
	if f.Name() != "fixed" {
		t.Fatal("fixed name wrong")
	}
}

func TestModeString(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	if s := a.Modes()[1].String(); s == "" {
		t.Fatal("empty mode string")
	}
}

func TestNewAdaptivePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid params did not panic")
		}
	}()
	p := DefaultParams()
	p.Etas = nil
	NewAdaptive(p)
}

var _ = []PHY{(*Adaptive)(nil), (*Fixed)(nil)} // interface conformance
