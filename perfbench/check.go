package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strings"

	"charisma/internal/grid"
	"charisma/internal/mac"
	"charisma/internal/multicell"
	"charisma/internal/run"
)

// repRef addresses replication rep of sweep point point.
type repRef struct{ point, rep int }

// repCount is a point's replication count as the grid runs it (adaptive
// precision is off in every workload).
func repCount(pt grid.Point) int { return max(pt.Replications, 1) }

// repKey is the content address the grid stores a replication under.
func repKey(pt grid.Point, rep int) (string, error) {
	h, err := pt.Spec.Hash()
	if err != nil {
		return "", err
	}
	return grid.RepKey(h, run.RepSeed(pt.Spec.BaseSeed(), rep)), nil
}

// verifySweep checks a finished sweep: every replication the grid ran is
// stored, and the sweep's own output equals the aggregate of the stored
// replications. It returns a digest over every stored replication's
// canonical JSON, in (point, rep) order.
func verifySweep(it *iteration) (string, error) {
	if it.agree == nil {
		return "", errors.New("sweep produced no output")
	}
	h := sha256.New()
	agg := make([]mac.Result, len(it.points))
	for j, pt := range it.points {
		rs := make([]mac.Result, repCount(pt))
		for r := range rs {
			key, err := repKey(pt, r)
			if err != nil {
				return "", fmt.Errorf("point %d: %w", j, err)
			}
			res, ok := it.lookup.Get(key)
			if !ok {
				return "", fmt.Errorf("point %d rep %d: no stored result", j, r)
			}
			b, err := json.Marshal(res)
			if err != nil {
				return "", err
			}
			h.Write(b)
			h.Write([]byte{'\n'})
			rs[r] = res
		}
		agg[j] = mac.AggregateReplications(rs)
	}
	if err := it.agree(agg); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// group names the protocol a spec runs, as it appears in metric names;
// every multicell deployment falls in one "multicell" group.
func group(spec grid.JobSpec) string {
	if spec.Multicell != nil {
		return "multicell"
	}
	return protoKey(spec.Scenario.Protocol)
}

// protoKey turns a protocol name into its metric-name form.
func protoKey(proto string) string {
	return strings.NewReplacer("d-tdma/", "dtdma-", "/", "-").Replace(strings.ToLower(proto))
}

// sample draws, from the seed, up to perGroup replications of each
// group, groups in name order.
func sample(pts []grid.Point, perGroup int, seed int64) []repRef {
	groups := make(map[string][]repRef)
	for j, pt := range pts {
		g := group(pt.Spec)
		for r := 0; r < repCount(pt); r++ {
			groups[g] = append(groups[g], repRef{j, r})
		}
	}
	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)
	h := fnv.New64a()
	h.Write([]byte("check"))
	rnd := rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
	var out []repRef
	for _, g := range names {
		refs := groups[g]
		for _, i := range rnd.Perm(len(refs))[:min(perGroup, len(refs))] {
			out = append(out, refs[i])
		}
	}
	return out
}

// reference re-executes one replication sequentially, outside the grid,
// through the model's own entry points at the replication's seed.
func reference(spec grid.JobSpec, rep int) (mac.Result, error) {
	seed := run.RepSeed(spec.BaseSeed(), rep)
	switch {
	case spec.Scenario != nil:
		sc := *spec.Scenario
		sc.Seed = seed
		return sc.Run()
	case spec.Multicell != nil:
		p := *spec.Multicell
		p.Seed = seed
		r, err := multicell.Run(p)
		if err != nil {
			return mac.Result{}, err
		}
		// The grid's result counts the measurement window once, not once
		// per cell.
		res := r.Result
		if n := len(r.PerCell); n > 0 {
			res.Frames /= float64(n)
		}
		return res, nil
	}
	return mac.Result{}, errors.New("spec without payload")
}

// checkStored compares the grid's stored result for ref with want.
func checkStored(it *iteration, ref repRef, want mac.Result) error {
	key, err := repKey(it.points[ref.point], ref.rep)
	if err != nil {
		return err
	}
	got, ok := it.lookup.Get(key)
	if !ok {
		return fmt.Errorf("point %d rep %d: no stored result", ref.point, ref.rep)
	}
	if err := sameResult(got, want); err != nil {
		return fmt.Errorf("point %d rep %d: %w", ref.point, ref.rep, err)
	}
	return nil
}

// checkSample re-executes each sampled replication and compares it byte
// for byte with what the grid stored. A non-nil lane records a span
// around each re-execution. It returns the mismatches found.
func checkSample(it *iteration, refs []repRef, lane *Lane) []error {
	var errs []error
	for _, ref := range refs {
		spec := it.points[ref.point].Spec
		var o Open
		if lane != nil {
			o = lane.Begin("reference."+repSpan(spec), 0, repID(ref.point, ref.rep))
		}
		want, err := reference(spec, ref.rep)
		if lane != nil {
			lane.End(o)
		}
		if err == nil {
			err = checkStored(it, ref, want)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}
