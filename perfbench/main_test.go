package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"charisma/internal/mac"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTinyRunsPrintEveryMetric runs each workload at the tiny size, with
// and without tracing, and checks that every metric BENCHMARK.json names
// is printed with its unit, both in the report and in the result line.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, wl := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			var out bytes.Buffer
			res, err := bench(ctx, options{workload: wl.Name, seed: 5, seconds: 0.01, trace: trace, root: t.TempDir(), size: "tiny"}, &out)
			cancel()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", wl.Name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result line, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: result line has %s = %+v, want unit %q", wl.Name, trace, m.Name, got, m.Unit)
				}
				line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + `\s+\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
				if !line.MatchString(out.String()) {
					t.Errorf("%s trace=%v: report lacks a %q line with unit %q", wl.Name, trace, m.Name, m.Unit)
				}
			}
		}
	}
}

// flipDigit changes the first digit of field's value in a JSON encoding.
func flipDigit(t *testing.T, b []byte, field string) []byte {
	t.Helper()
	i := bytes.Index(b, []byte(`"`+field+`":`))
	if i < 0 {
		t.Fatalf("no %s in %s", field, b)
	}
	for j := i; j < len(b); j++ {
		if b[j] >= '0' && b[j] <= '9' {
			out := bytes.Clone(b)
			if out[j] == '9' {
				out[j] = '8'
			} else {
				out[j]++
			}
			return out
		}
	}
	t.Fatalf("no digit after %s", field)
	return nil
}

// TestOutputCheckCatchesFlippedByte corrupts one byte of one stored
// replication and expects both the sampled re-execution and the sweep
// check to reject it.
func TestOutputCheckCatchesFlippedByte(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	wl, err := newWorkload("fig12-data", 3, sizeTable["tiny"], t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	it, err := runIteration(ctx, wl, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer it.release()
	if it.digest == "" {
		t.Fatal("clean sweep failed its check")
	}
	refs := sample(it.points, 1, 3)
	if errs := checkSample(it, refs, nil); len(errs) != 0 {
		t.Fatalf("clean sweep: %v", errs)
	}

	key, err := repKey(it.points[refs[0].point], refs[0].rep)
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := it.lookup.Get(key)
	b, err := json.Marshal(stored)
	if err != nil {
		t.Fatal(err)
	}
	var bad mac.Result
	if err := json.Unmarshal(flipDigit(t, b, "DataGenerated"), &bad); err != nil {
		t.Fatal(err)
	}
	it.lookup.Put(key, bad)

	errs := checkSample(it, refs[:1], nil)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "results differ") {
		t.Errorf("re-execution check after a flipped byte: %v, want one mismatch", errs)
	}
	if d, err := verifySweep(it); err == nil && d == it.digest {
		t.Error("sweep check and digest unchanged after a flipped byte")
	}
}

func TestCoveredTakesTheUnionOfChildren(t *testing.T) {
	parent := Span{Start: 0, End: 100}
	kids := []Span{{Start: 10, End: 40}, {Start: 30, End: 50}, {Start: 60, End: 70}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 60 {
		t.Errorf("covered = %v, want 60", got)
	}
}

// TestLayersNamesKnownMetrics keeps the predictions in layers.json in step
// with the metrics BENCHMARK.json defines.
func TestLayersNamesKnownMetrics(t *testing.T) {
	s := loadSpec(t)
	known := make(map[string]bool)
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		known[m.Name] = true
	}
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Predictions []struct {
			Group    string
			PerLayer []string `json:"per_layer"`
			Moves    []string
		}
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, p := range doc.Predictions {
		for _, n := range append(p.PerLayer, p.Moves...) {
			if !known[n] {
				t.Errorf("layers.json group %q names unknown metric %q", p.Group, n)
			}
		}
	}
}
