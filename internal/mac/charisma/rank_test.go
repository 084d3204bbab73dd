package charisma

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"charisma/internal/mac"
)

// stableRank is the reference order: a stable sort of the candidates
// themselves by priority, highest first, then station ID.
func stableRank(pool []candidate) []int {
	sorted := slices.Clone(pool)
	slices.SortStableFunc(sorted, func(a, b candidate) int {
		if a.prio != b.prio {
			return cmp.Compare(b.prio, a.prio)
		}
		return cmp.Compare(a.r.St.ID, b.r.St.ID)
	})
	ids := make([]int, len(sorted))
	for i, c := range sorted {
		ids[i] = c.r.St.ID
	}
	return ids
}

// TestRankingMatchesStableSort checks the key ranking against a stable
// sort of whole candidates on random pools of distinct stations whose
// priorities come from a handful of values, so ties are common: the
// allocation and backlog passes must visit candidates in the reference
// order, and the CSI poll must pick the first Nb stale candidates of it.
func TestRankingMatchesStableSort(t *testing.T) {
	prios := []float64{0, 0.25, 0.5, 1.25, 2}
	r := rand.New(rand.NewPCG(1, 17))
	for trial := 0; trial < 2000; trial++ {
		n := r.IntN(48)
		ids := r.Perm(3*n + 1)
		pool := make([]candidate, n)
		for i := range pool {
			pool[i] = candidate{
				r:    &mac.Request{St: &mac.Station{ID: ids[i]}},
				prio: prios[r.IntN(len(prios))],
			}
		}

		want := stableRank(pool)
		keys := rank(nil, pool)
		if len(keys) != n {
			t.Fatalf("trial %d: %d keys for %d candidates", trial, len(keys), n)
		}
		for i, k := range keys {
			if got := pool[k.idx].r.St.ID; got != want[i] {
				t.Fatalf("trial %d: rank %d is station %d, want %d (reference %v)", trial, i, got, want[i], want)
			}
		}

		var stale []candidate
		var staleKeys []rankKey
		for i := range pool {
			if r.IntN(3) > 0 {
				stale = append(stale, pool[i])
				staleKeys = appendKey(staleKeys, pool, i)
			}
		}
		nb := r.IntN(8)
		wantPolled := stableRank(stale)[:min(nb, len(stale))]
		polled := selectTop(staleKeys, nb)
		if len(polled) != len(wantPolled) {
			t.Fatalf("trial %d: polled %d of %d stale with Nb=%d, want %d", trial, len(polled), len(stale), nb, len(wantPolled))
		}
		for i, k := range polled {
			if got := pool[k.idx].r.St.ID; got != wantPolled[i] {
				t.Fatalf("trial %d: poll %d is station %d, want %d (reference %v)", trial, i, got, wantPolled[i], wantPolled)
			}
		}
	}
}
