// Package mining provides the association-rule substrate the signature
// table construction depends on: single-item and 2-itemset support
// counting, and a level-wise Apriori frequent-itemset miner.
//
// Support is expressed as a fraction of the database (the paper defines
// the support of an itemset as the percentage of transactions
// containing it).
package mining

import (
	"fmt"
	"sort"

	"sigtable/internal/txn"
)

// PairKey packs an item pair (a < b) into a single map key.
func PairKey(a, b txn.Item) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// UnpackPair is the inverse of PairKey.
func UnpackPair(k uint64) (a, b txn.Item) {
	return txn.Item(k >> 32), txn.Item(k & 0xffffffff)
}

// Pair is a 2-itemset with its support (fraction of transactions).
type Pair struct {
	A, B    txn.Item
	Support float64
}

// SupportCounts holds the outcome of a counting pass over a dataset.
type SupportCounts struct {
	// N is the number of transactions counted.
	N int
	// Item[i] is the number of transactions containing item i.
	Item []int

	// Pair counts, when counted, live in exactly one of two stores:
	// dense is a triangular array with one counter per unordered item
	// pair (see pairIndex), used whenever it fits pairBudget; sparse
	// maps PairKey(a, b) to the count of pairs that co-occur at least
	// once, for universes too large for the dense array.
	universe int
	dense    []uint32
	sparse   map[uint64]int
}

// pairBudget bounds the dense pair counter's memory: u(u-1)/2 uint32
// counters fit for universes up to 2,896 items. The paper's N = 1,000
// takes 1.9 MiB; on its T10.I6 data the map ends up holding ~80% of
// all possible pairs, so the dense array is both smaller and an order
// of magnitude faster.
const pairBudget = 16 << 20

// ItemSupport returns the support fraction of a single item.
func (s *SupportCounts) ItemSupport(i txn.Item) float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Item[i]) / float64(s.N)
}

// PairCount returns the number of counted transactions containing both
// a and b (a != b), or 0 when pairs were not counted.
func (s *SupportCounts) PairCount(a, b txn.Item) int {
	if a > b {
		a, b = b, a
	}
	if s.dense != nil {
		return int(s.dense[pairIndex(s.universe, a, b)])
	}
	return s.sparse[PairKey(a, b)]
}

// PairSupport returns the support fraction of the pair {a, b}.
func (s *SupportCounts) PairSupport(a, b txn.Item) float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.PairCount(a, b)) / float64(s.N)
}

// pairIndex returns the dense counter of the pair (a, b), a < b: row
// a of the triangle holds the pairs (a, a+1) … (a, u-1) and starts
// after the a rows before it, which hold a(2u-a-1)/2 pairs.
func pairIndex(u int, a, b txn.Item) int {
	return int(a)*(2*u-int(a)-1)/2 + int(b) - int(a) - 1
}

// CountOptions tunes the counting pass.
type CountOptions struct {
	// MaxSample caps the number of transactions examined (0 = all).
	// Signature construction only needs support *estimates*, and a
	// sample keeps index builds fast on multi-hundred-K datasets.
	MaxSample int
	// CountPairs enables 2-itemset counting (needed for signature
	// construction, skippable when only item supports are wanted).
	CountPairs bool
}

// Count performs a single pass over the dataset and tallies item (and
// optionally pair) occurrence counts.
func Count(d *txn.Dataset, opt CountOptions) *SupportCounts {
	return count(d, opt, pairBudget)
}

// count is Count with the dense pair counter's byte budget as a
// parameter: pairs go to the triangular array when its counters fit
// budget, else to the map.
func count(d *txn.Dataset, opt CountOptions, budget int) *SupportCounts {
	n := d.Len()
	if opt.MaxSample > 0 && opt.MaxSample < n {
		n = opt.MaxSample
	}
	u := d.UniverseSize()
	s := &SupportCounts{N: n, Item: make([]int, u), universe: u}
	if opt.CountPairs {
		if pairs := u * (u - 1) / 2; pairs*4 <= budget {
			s.dense = make([]uint32, pairs)
		} else {
			s.sparse = make(map[uint64]int, 1<<16)
		}
	}
	for i := 0; i < n; i++ {
		t := d.Get(txn.TID(i))
		for _, it := range t {
			s.Item[it]++
		}
		switch {
		case s.dense != nil:
			// Transactions are strictly increasing, so t[a] < t[b].
			for a := 0; a < len(t); a++ {
				for b := a + 1; b < len(t); b++ {
					s.dense[pairIndex(u, t[a], t[b])]++
				}
			}
		case s.sparse != nil:
			for a := 0; a < len(t); a++ {
				for b := a + 1; b < len(t); b++ {
					s.sparse[PairKey(t[a], t[b])]++
				}
			}
		}
	}
	return s
}

// FrequentPairs returns all pairs whose support is at least minSupport,
// sorted by decreasing support (ties broken by item ids for
// determinism).
func (s *SupportCounts) FrequentPairs(minSupport float64) []Pair {
	if s.dense == nil && s.sparse == nil {
		panic("mining: FrequentPairs requires counting with CountPairs")
	}
	minCount := int(minSupport * float64(s.N))
	if minCount < 1 {
		minCount = 1
	}
	var out []Pair
	keep := func(a, b txn.Item, c int) {
		if c >= minCount {
			out = append(out, Pair{A: a, B: b, Support: float64(c) / float64(s.N)})
		}
	}
	if s.dense != nil {
		i := 0
		for a := 0; a < s.universe; a++ {
			for b := a + 1; b < s.universe; b++ {
				keep(txn.Item(a), txn.Item(b), int(s.dense[i]))
				i++
			}
		}
	} else {
		for k, c := range s.sparse {
			a, b := UnpackPair(k)
			keep(a, b, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// ItemSupports returns the per-item support fractions as a dense slice.
func (s *SupportCounts) ItemSupports() []float64 {
	out := make([]float64, len(s.Item))
	if s.N == 0 {
		return out
	}
	for i, c := range s.Item {
		out[i] = float64(c) / float64(s.N)
	}
	return out
}

// String summarizes the counts for debugging.
func (s *SupportCounts) String() string {
	pairs := len(s.sparse)
	for _, c := range s.dense {
		if c > 0 {
			pairs++
		}
	}
	return fmt.Sprintf("mining.SupportCounts{N: %d, items: %d, pairs: %d}", s.N, len(s.Item), pairs)
}
