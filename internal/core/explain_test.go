package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sigtable/internal/simfun"
)

func TestExplainOrderingAndConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randomDataset(rng, 300, 30)
	part := randomPartition(t, rng, 30, 5)
	table := buildTestTable(t, d, part, BuildOptions{})

	target := randomTarget(rng, 30)
	ex := table.Explain(target, simfun.Jaccard{})

	if len(ex.Entries) != table.NumEntries() {
		t.Fatalf("explained %d entries, table has %d", len(ex.Entries), table.NumEntries())
	}
	if len(ex.Overlaps) != table.K() {
		t.Fatalf("overlaps has %d slots", len(ex.Overlaps))
	}
	if got := part.Coord(target, 1); got != ex.TargetCoord {
		t.Fatalf("TargetCoord %#x, want %#x", ex.TargetCoord, got)
	}
	for i := 1; i < len(ex.Entries); i++ {
		if ex.Entries[i-1].Bound < ex.Entries[i].Bound {
			t.Fatal("entries not sorted by decreasing bound")
		}
	}
	// Bounds must match a direct Query's pruning behaviour: the first
	// entry's bound dominates the best achievable value.
	res, err := table.Query(context.Background(), target, simfun.Jaccard{}, QueryOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) > 0 && res.Neighbors[0].Value > ex.Entries[0].Bound+1e-12 {
		t.Fatalf("best value %v exceeds top bound %v", res.Neighbors[0].Value, ex.Entries[0].Bound)
	}
}

func TestExplainBindsTargetAware(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := randomDataset(rng, 100, 20)
	table := buildTestTable(t, d, randomPartition(t, rng, 20, 3), BuildOptions{})
	target := d.Get(5)
	ex := table.Explain(target, simfun.Cosine{})
	// A cosine bound can never exceed 1 once bound to the target.
	for _, e := range ex.Entries {
		if e.Bound > 1+1e-9 {
			t.Fatalf("unbound cosine bound %v", e.Bound)
		}
	}
}

func TestExplanationString(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDataset(rng, 400, 30)
	table := buildTestTable(t, d, randomPartition(t, rng, 30, 6), BuildOptions{})
	ex := table.Explain(randomTarget(rng, 30), simfun.Hamming{})
	s := ex.String()
	if !strings.Contains(s, "target coord") || !strings.Contains(s, "bound") {
		t.Fatalf("String:\n%s", s)
	}
	if table.NumEntries() > 10 && !strings.Contains(s, "more entries") {
		t.Fatalf("String did not truncate:\n%s", s)
	}
}

// TestExplainFollowsVisitingOrder: across the built-in similarity
// functions, Explain's rows list the entries in exactly the order the
// ranked entry source pops them for a search, ties in the bound broken
// by coordinate similarity as the search breaks them.
func TestExplainFollowsVisitingOrder(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 20 + rng.Intn(30)
		d := randomDataset(rng, 100+rng.Intn(300), universe)
		part := randomPartition(t, rng, universe, 3+rng.Intn(8))
		tab := buildTestTable(t, d, part, BuildOptions{ActivationThreshold: 1 + rng.Intn(2)})
		target := randomTarget(rng, universe)
		for _, f := range allSimFuncs() {
			ex := tab.Explain(target, f)
			bound := f
			if ta, ok := f.(simfun.TargetAware); ok {
				bound = ta.Bind(target)
			}
			sc := tab.getScratch()
			popped := popAll(tab.rankSource(sc, bound, tab.part.Overlaps(target, nil), coordOf(tab, target), ByOptimisticBound))
			tab.putScratch(sc)
			if len(popped) != len(ex.Entries) {
				t.Logf("%T: %d rows, %d popped", f, len(ex.Entries), len(popped))
				return false
			}
			for i, re := range popped {
				if ex.Entries[i].Coord != re.e.Coord {
					t.Logf("%T row %d: coordinate %#x, search visits %#x", f, i, ex.Entries[i].Coord, re.e.Coord)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
