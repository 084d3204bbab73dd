package run

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"charisma/internal/core"
)

func shortScenario(proto string, nv, nd int) core.Scenario {
	sc := core.DefaultScenario(proto)
	sc.NumVoice = nv
	sc.NumData = nd
	sc.WarmupSec = 0.5
	sc.DurationSec = 2
	return sc
}

func TestRepSeed(t *testing.T) {
	if RepSeed(42, 0) != 42 {
		t.Fatal("replication 0 must keep the base seed")
	}
	seen := map[int64]bool{42: true}
	for i := 1; i < 16; i++ {
		s := RepSeed(42, i)
		if seen[s] {
			t.Fatalf("replication %d collides with an earlier seed", i)
		}
		seen[s] = true
		if s != RepSeed(42, i) {
			t.Fatalf("replication %d seed not deterministic", i)
		}
	}
	if RepSeed(42, 1) == RepSeed(43, 1) {
		t.Fatal("different base seeds derived the same replication seed")
	}
}

// A 1-replication reference run must be byte-identical to Scenario.Run.
func TestSingleReplicationMatchesScenarioRun(t *testing.T) {
	sc := shortScenario(core.ProtoDRMA, 8, 2)
	single, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Sequential([]core.Scenario{sc}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0] != single {
		t.Fatal("single-rep reference result differs from Scenario.Run")
	}
}

func TestReplicationAggregation(t *testing.T) {
	const reps = 8
	sc := shortScenario(core.ProtoCharisma, 12, 3)
	rs, err := Sequential([]core.Scenario{sc}, reps)
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if r.Reps.Replications != reps {
		t.Fatalf("Replications = %d, want %d", r.Reps.Replications, reps)
	}
	single, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Replication 0 keeps the base seed, so pooled counters must cover at
	// least the single run and roughly reps times its window.
	if r.VoiceGenerated <= single.VoiceGenerated {
		t.Fatalf("pooled voice %d not above single-run %d", r.VoiceGenerated, single.VoiceGenerated)
	}
	if r.Frames < float64(reps)*single.Frames*0.99 {
		t.Fatalf("pooled frames %v, want ~%v", r.Frames, float64(reps)*single.Frames)
	}
	// Independent seeds differ, so across-rep dispersion must be real.
	if r.Reps.VoiceLossCI95 <= 0 {
		t.Fatalf("VoiceLossCI95 = %v, want > 0 across %d independent reps", r.Reps.VoiceLossCI95, reps)
	}
}

// Replication must preserve the common-random-numbers pairing: rep i of
// every protocol observes identical traffic realizations.
func TestReplicationPreservesCRN(t *testing.T) {
	rs, err := Sequential([]core.Scenario{
		shortScenario(core.ProtoCharisma, 10, 3),
		shortScenario(core.ProtoDRMA, 10, 3),
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].VoiceGenerated != rs[1].VoiceGenerated || rs[0].DataGenerated != rs[1].DataGenerated {
		t.Fatalf("pooled traffic differs across protocols: %d/%d vs %d/%d",
			rs[0].VoiceGenerated, rs[0].DataGenerated, rs[1].VoiceGenerated, rs[1].DataGenerated)
	}
}

func TestMapOrderAndErrors(t *testing.T) {
	vals, err := Map(context.Background(), 3, 10, func(i int) (int, error) {
		if i == 4 || i == 7 {
			return 0, fmt.Errorf("boom %d", i)
		}
		return i * i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom 4") || !strings.Contains(err.Error(), "boom 7") {
		t.Fatalf("joined error wrong: %v", err)
	}
	for i, v := range vals {
		if i != 4 && i != 7 && v != i*i {
			t.Fatalf("vals[%d] = %d, want %d", i, v, i*i)
		}
	}
	if _, err := Map(context.Background(), 0, 0, func(int) (int, error) { return 0, nil }); err != nil {
		t.Fatalf("empty map errored: %v", err)
	}
}

func TestSequentialReportsError(t *testing.T) {
	bad := shortScenario(core.ProtoCharisma, 5, 0)
	bad.Protocol = "bogus"
	if _, err := Sequential([]core.Scenario{shortScenario(core.ProtoRAMA, 5, 0), bad}, 2); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v, want the bogus protocol named", err)
	}
}
