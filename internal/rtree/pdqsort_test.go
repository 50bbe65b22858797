package rtree

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"scout/internal/geom"
	"scout/internal/pagestore"
)

// recsByLess is the oracle's view of the records: sort.Sort over the same
// recLess, one interface call per compare and per swap.
type recsByLess []strRec

func (r recsByLess) Len() int           { return len(r) }
func (r recsByLess) Less(i, j int) bool { return recLess(&r[i], &r[j]) }
func (r recsByLess) Swap(i, j int)      { r[i], r[j] = r[j], r[i] }

// TestSortRecsMatchesSortSort: sortRecs leaves sort.Sort's permutation, IDs
// included, at GOMAXPROCS 1, 2 and 4. Lengths run from 0 to four times the
// parallel cutoff, either side of the cutoff and of pdqsort's own
// thresholds. Coordinates come from three values per axis, so nearly every
// compare meets exact ties, and the inputs are ascending, descending,
// sawtooth and shuffled, which pdqsort's pattern checks and its
// equal-partition step each treat differently.
func TestSortRecsMatchesSortSort(t *testing.T) {
	lengths := []int{0, 1, 2, 12, 13, 49, 50, 1000,
		parallelCutoff - 1, parallelCutoff, parallelCutoff + 1, 2*parallelCutoff + 1, 4 * parallelCutoff}
	// Eight shuffles: whether a spawned recursion is the one that reads
	// data[a-1] depends on the pivots the shuffle leads to.
	type pattern struct {
		name string
		seed int64
		key  func(rng *rand.Rand, i, n int) int
	}
	patterns := []pattern{
		{"ascending", 0, func(_ *rand.Rand, i, n int) int { return i * 27 / n }},
		{"descending", 0, func(_ *rand.Rand, i, n int) int { return 26 - i*27/n }},
		{"sawtooth", 0, func(_ *rand.Rand, i, _ int) int { return i % 27 }},
	}
	for seed := int64(1); seed <= 8; seed++ {
		patterns = append(patterns, pattern{"shuffled", seed, func(rng *rand.Rand, _, _ int) int { return rng.Intn(27) }})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range lengths {
		for _, pat := range patterns {
			rng := rand.New(rand.NewSource(pat.seed))
			in := make([]strRec, n)
			for i := range in {
				k := pat.key(rng, i, n)
				in[i] = strRec{c: geom.V(float64(k/9), float64(k/3%3), float64(k%3)), id: pagestore.ObjectID(i)}
			}
			want := slices.Clone(in)
			sort.Sort(recsByLess(want))
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got := slices.Clone(in)
				sortRecs(got)
				if !slices.Equal(got, want) {
					t.Errorf("%s(%d) n=%d GOMAXPROCS %d: differs from sort.Sort from slot %d on", pat.name, pat.seed, n, procs, firstDiff(got, want))
				}
			}
		}
	}
}

// firstDiff returns the first slot where a and b differ.
func firstDiff[T comparable](a, b []T) int {
	i := 0
	for i < min(len(a), len(b)) && a[i] == b[i] {
		i++
	}
	return i
}
