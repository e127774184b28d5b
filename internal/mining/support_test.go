package mining

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sigtable/internal/gen"
	"sigtable/internal/txn"
)

// tinyDataset: 4 transactions over 5 items with hand-countable
// supports.
func tinyDataset() *txn.Dataset {
	d := txn.NewDataset(5)
	d.Append(txn.New(0, 1, 2))
	d.Append(txn.New(0, 1))
	d.Append(txn.New(1, 2, 3))
	d.Append(txn.New(4))
	return d
}

func TestPairKeyRoundTrip(t *testing.T) {
	a, b := UnpackPair(PairKey(7, 3))
	if a != 3 || b != 7 {
		t.Fatalf("round trip = (%d, %d)", a, b)
	}
	if PairKey(3, 7) != PairKey(7, 3) {
		t.Fatal("PairKey not order-invariant")
	}
}

func TestCountItems(t *testing.T) {
	s := Count(tinyDataset(), CountOptions{})
	want := []int{2, 3, 2, 1, 1}
	for i, w := range want {
		if s.Item[i] != w {
			t.Errorf("item %d count = %d, want %d", i, s.Item[i], w)
		}
	}
	if s.N != 4 {
		t.Fatalf("N = %d", s.N)
	}
	if got := s.ItemSupport(1); got != 0.75 {
		t.Fatalf("ItemSupport(1) = %v", got)
	}
	if s.dense != nil || s.sparse != nil {
		t.Fatal("pairs counted without CountPairs")
	}
}

func TestCountPairs(t *testing.T) {
	s := Count(tinyDataset(), CountOptions{CountPairs: true})
	cases := []struct {
		a, b txn.Item
		want int
	}{
		{0, 1, 2}, {0, 2, 1}, {1, 2, 2}, {1, 3, 1}, {2, 3, 1}, {0, 3, 0}, {0, 4, 0},
	}
	for _, tc := range cases {
		if got := s.PairCount(tc.b, tc.a); got != tc.want {
			t.Errorf("pair (%d,%d) count = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	if got := s.PairSupport(0, 1); got != 0.5 {
		t.Fatalf("PairSupport(0,1) = %v", got)
	}
}

func TestCountSampling(t *testing.T) {
	s := Count(tinyDataset(), CountOptions{MaxSample: 2})
	if s.N != 2 {
		t.Fatalf("N = %d, want 2", s.N)
	}
	if s.Item[3] != 0 {
		t.Fatal("sampled count saw beyond sample")
	}
}

func TestFrequentPairsOrderingAndThreshold(t *testing.T) {
	s := Count(tinyDataset(), CountOptions{CountPairs: true})
	pairs := s.FrequentPairs(0.5) // >= 2 of 4 transactions
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs: %v", len(pairs), pairs)
	}
	// Both have support 0.5; ties break by item id.
	if pairs[0].A != 0 || pairs[0].B != 1 || pairs[1].A != 1 || pairs[1].B != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	// Very low threshold returns everything that co-occurs.
	all := s.FrequentPairs(1e-9)
	if len(all) != 5 {
		t.Fatalf("got %d pairs at zero threshold", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Support < all[i].Support {
			t.Fatal("pairs not sorted by decreasing support")
		}
	}
}

func TestFrequentPairsPanicsWithoutPairCounts(t *testing.T) {
	s := Count(tinyDataset(), CountOptions{})
	defer func() {
		if recover() == nil {
			t.Fatal("FrequentPairs without pair counting did not panic")
		}
	}()
	s.FrequentPairs(0.5)
}

func TestItemSupports(t *testing.T) {
	s := Count(tinyDataset(), CountOptions{})
	sup := s.ItemSupports()
	if sup[1] != 0.75 || sup[4] != 0.25 {
		t.Fatalf("supports = %v", sup)
	}
}

// TestDenseMatchesMapCounts: the dense triangular pair counter and the
// map counter agree exactly — item counts, every pair's count and the
// FrequentPairs slice — on the paper's T10.I6 data and on random small
// universes with random sample caps.
func TestDenseMatchesMapCounts(t *testing.T) {
	g, err := gen.New(gen.Config{Seed: 1999})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameCounts(g.Dataset(20_000), CountOptions{CountPairs: true}, 0.0005); err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64, sampleRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 2 + rng.Intn(60)
		d := txn.NewDataset(universe)
		for i := 200 + rng.Intn(400); i > 0; i-- {
			items := make([]txn.Item, rng.Intn(12))
			for j := range items {
				items[j] = txn.Item(rng.Intn(universe))
			}
			d.Append(txn.New(items...))
		}
		opt := CountOptions{CountPairs: true}
		if sampleRaw%3 == 0 {
			opt.MaxSample = 1 + int(sampleRaw)
		}
		if err := sameCounts(d, opt, float64(sampleRaw%8)/100); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// sameCounts counts d densely and, with a zero budget, through the map,
// and reports the first difference.
func sameCounts(d *txn.Dataset, opt CountOptions, minSupport float64) error {
	dense, sparse := count(d, opt, pairBudget), count(d, opt, 0)
	if dense.dense == nil || sparse.sparse == nil {
		return fmt.Errorf("budget did not select the counters: dense %v, map %v", dense.dense != nil, sparse.sparse != nil)
	}
	if dense.N != sparse.N || !slices.Equal(dense.Item, sparse.Item) {
		return fmt.Errorf("item counts differ: N %d vs %d", dense.N, sparse.N)
	}
	for a := 0; a < d.UniverseSize(); a++ {
		for b := a + 1; b < d.UniverseSize(); b++ {
			if x, y := dense.PairCount(txn.Item(a), txn.Item(b)), sparse.PairCount(txn.Item(a), txn.Item(b)); x != y {
				return fmt.Errorf("pair (%d,%d): dense %d, map %d", a, b, x, y)
			}
		}
	}
	if x, y := dense.FrequentPairs(minSupport), sparse.FrequentPairs(minSupport); !slices.Equal(x, y) {
		return fmt.Errorf("FrequentPairs(%v) differ: %d vs %d pairs", minSupport, len(x), len(y))
	}
	return nil
}
