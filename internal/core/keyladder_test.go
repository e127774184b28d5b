package core

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"sigtable/internal/signature"
	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// checkAgainstReference drains the key ladder and the LegacyRanker
// sort for one target and fails unless they pop the same entries with
// the same float bits for every key. It returns the reference
// sequence.
func checkAgainstReference(t *testing.T, tab *Table, f simfun.Func, target txn.Transaction, by SortCriterion) []rankedEntry {
	t.Helper()
	if ta, ok := f.(simfun.TargetAware); ok {
		f = ta.Bind(target)
	}
	overlaps := tab.part.Overlaps(target, nil)
	targetCoord := coordOf(tab, target)
	scRef, scKey := tab.getScratch(), tab.getScratch()
	defer tab.putScratch(scRef)
	defer tab.putScratch(scKey)

	defer func(old bool) { LegacyRanker = old }(LegacyRanker)
	LegacyRanker = true
	ref := popAll(tab.rankSource(scRef, f, overlaps, targetCoord, by))
	LegacyRanker = false
	got := popAll(tab.rankSource(scKey, f, overlaps, targetCoord, by))

	if len(ref) != len(got) {
		t.Fatalf("%s by %v target %v: reference pops %d entries, key ladder %d", f.Name(), by, target, len(ref), len(got))
	}
	for i := range ref {
		a, b := ref[i], got[i]
		if a.e != b.e || a.idx != b.idx ||
			math.Float64bits(a.opt) != math.Float64bits(b.opt) ||
			math.Float64bits(a.sort) != math.Float64bits(b.sort) ||
			math.Float64bits(a.tie) != math.Float64bits(b.tie) {
			t.Fatalf("%s by %v target %v, position %d: reference {%#x opt=%v tie=%v}, key ladder {%#x opt=%v tie=%v}",
				f.Name(), by, target, i, a.e.Coord, a.opt, a.tie, b.e.Coord, b.opt, b.tie)
		}
	}
	return ref
}

// TestKeyLadderAppendedTieBreak pins the coordinate tie-break for
// slots appended after the build. Six two-item signatures at r = 1
// make every coordinate hand-picked: the build holds signature 0 plus
// one or two of signatures 2..5, and the inserts add signature 1, so
// each new coordinate sorts below build-time coordinates it ties with
// on both the bound and the tie key. Only merging the appended tail by
// coordinate puts them in place.
func TestKeyLadderAppendedTieBreak(t *testing.T) {
	tab := tieBreakTable(t)
	if int(tab.dir.ordered) != tab.dir.slots-(tieBreakK-1) {
		t.Fatalf("ordered prefix %d of %d slots, want the %d inserts appended past it", tab.dir.ordered, tab.dir.slots, tieBreakK-1)
	}

	targets := []txn.Transaction{txn.New(0), txn.New(1), txn.New(0, 3), txn.New(0, 4, 10)}
	interleaved := false
	for _, f := range allSimFuncs() {
		for _, target := range targets {
			for _, by := range []SortCriterion{ByOptimisticBound, ByCoordSimilarity} {
				ref := checkAgainstReference(t, tab, f, target, by)
				for i := 1; i < len(ref); i++ {
					a, b := ref[i-1], ref[i]
					if a.sort == b.sort && a.tie == b.tie && a.idx >= int(tab.dir.ordered) && b.idx < int(tab.dir.ordered) {
						interleaved = true
					}
				}
			}
		}
	}
	if !interleaved {
		t.Fatal("no appended slot is visited before a build-time slot with equal keys; the fixture does not exercise the tail merge")
	}
}

const tieBreakK = 6

// tieBreakTable builds the fixture of TestKeyLadderAppendedTieBreak:
// signature j holds items 2j and 2j+1, so at r = 1 a transaction
// activates j iff it holds one of them.
func tieBreakTable(t *testing.T) *Table {
	t.Helper()
	sets := make([][]txn.Item, tieBreakK)
	for j := range sets {
		sets[j] = []txn.Item{txn.Item(2 * j), txn.Item(2*j + 1)}
	}
	part, err := signature.NewPartition(2*tieBreakK, sets)
	if err != nil {
		t.Fatal(err)
	}
	d := txn.NewDataset(2 * tieBreakK)
	for j := 2; j < tieBreakK; j++ {
		d.Append(txn.New(0, txn.Item(2*j)))
		for j2 := j + 1; j2 < tieBreakK; j2++ {
			d.Append(txn.New(0, txn.Item(2*j), txn.Item(2*j2)))
		}
	}
	tab := buildTestTable(t, d, part, BuildOptions{})
	tab, _ = tab.InsertSnapshot(txn.New(0, 2))
	for j := 2; j < tieBreakK; j++ {
		tab, _ = tab.InsertSnapshot(txn.New(0, 2, txn.Item(2*j)))
	}
	return tab
}

// TestKeyLadderWidePairs ranks a target whose pairs spread wide:
// ten-item signatures hold few transactions, and the target fills two
// signatures and misses the rest, so the M_opt corrections and hamming
// sums packed into each pair key are large.
func TestKeyLadderWidePairs(t *testing.T) {
	const k, width = 6, 10
	sets := make([][]txn.Item, k)
	for i := 0; i < k*width; i++ {
		sets[i/width] = append(sets[i/width], txn.Item(i))
	}
	part, err := signature.NewPartition(k*width, sets)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	d := txn.NewDataset(k * width)
	for i := 0; i < 12; i++ {
		d.Append(randomTarget(rng, k*width))
	}
	tab := buildTestTable(t, d, part, BuildOptions{})
	mutateTable(rng, tab, k*width, 6)
	items := make([]txn.Item, 2*width)
	for i := range items {
		items[i] = txn.Item(i)
	}
	target := txn.New(items...)

	for _, f := range allSimFuncs() {
		for _, by := range []SortCriterion{ByOptimisticBound, ByCoordSimilarity} {
			checkAgainstReference(t, tab, f, target, by)
		}
	}
}

// TestPairTable checks that the pair table numbers keys densely in
// first-seen order, grows past half full, and never holds more than
// twice the slot count in cells.
func TestPairTable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pt pairTable
	for _, slots := range []int{100, 1000, 3, 1, 5000, 0} {
		// A query meets at most one distinct pair per slot.
		pool := make([]uint64, slots)
		for i := range pool {
			pool[i] = rng.Uint64()
		}
		for round := 0; round < 2; round++ {
			pt.reset(slots)
			want := make(map[uint64]int32)
			for i := 0; i < 4*slots; i++ {
				key := pool[rng.Intn(len(pool))]
				p, ok := want[key]
				if !ok {
					p = int32(len(want))
					want[key] = p
				}
				if got := pt.number(key); got != p {
					t.Fatalf("%d slots: key %#x numbered %d, want %d", slots, key, got, p)
				}
			}
			// A probe needs an empty cell to stop at.
			if cells := int(pt.mask) + 1; cells > max(2*slots, 1) || cells <= len(want) {
				t.Fatalf("%d slots: %d cells for %d pairs", slots, cells, len(want))
			}
		}
	}
}

// TestKeyLadderEdgeTargets ranks a target holding every item of the
// universe and an empty target, which overlaps no signature, on a
// table with appended slots.
func TestKeyLadderEdgeTargets(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		universe := 20 + rng.Intn(30)
		d := randomDataset(rng, 150+rng.Intn(150), universe)
		part := randomPartition(t, rng, universe, 3+rng.Intn(8))
		tab := buildTestTable(t, d, part, BuildOptions{ActivationThreshold: 1 + rng.Intn(2)})
		mutateTable(rng, tab, universe, 20)

		all := make([]txn.Item, universe)
		for i := range all {
			all[i] = txn.Item(i)
		}
		for _, target := range []txn.Transaction{txn.New(all...), txn.New()} {
			for _, f := range allSimFuncs() {
				for _, by := range []SortCriterion{ByOptimisticBound, ByCoordSimilarity} {
					checkAgainstReference(t, tab, f, target, by)
				}
			}
		}
	}
}

// countingFunc counts Score calls.
type countingFunc struct {
	simfun.Func
	calls *int
}

func (c countingFunc) Score(x, y int) float64 {
	*c.calls++
	return c.Func.Score(x, y)
}

// TestKeyLadderScoresOncePerKey checks that ranking evaluates f once
// per distinct (M_opt, D_opt) pair plus once per distinct tie code in
// the buckets consumption has reached, far fewer times than there are
// entries.
func TestKeyLadderScoresOncePerKey(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	universe := 60
	d := randomDataset(rng, 4000, universe)
	part := randomPartition(t, rng, universe, 12)
	tab := buildTestTable(t, d, part, BuildOptions{})
	slots := len(tab.entries)

	for _, fn := range allSimFuncs() {
		for trial := 0; trial < 4; trial++ {
			target := randomTarget(rng, universe)
			f := fn
			if ta, ok := f.(simfun.TargetAware); ok {
				f = ta.Bind(target)
			}
			overlaps := tab.part.Overlaps(target, nil)
			targetCoord := coordOf(tab, target)
			b := tab.newBounder(overlaps)
			pairs := make(map[Bounds]bool)
			for _, e := range tab.entries {
				pairs[b.bounds(e.Coord)] = true
			}
			for _, by := range []SortCriterion{ByOptimisticBound, ByCoordSimilarity} {
				for _, prefix := range []int{1, 16, slots} {
					calls := 0
					sc := tab.getScratch()
					src := tab.rankSource(sc, countingFunc{f, &calls}, overlaps, targetCoord, by)
					var last rankedEntry
					for i := 0; i < prefix && src.Len() > 0; i++ {
						last = src.Pop()
					}
					tab.putScratch(sc)

					// Bound order ties only the buckets bounding at
					// least the last popped entry; coordinate order
					// computes every tie code up front.
					codes := make(map[[2]int]bool)
					for _, e := range tab.entries {
						bd := b.bounds(e.Coord)
						if by == ByCoordSimilarity || f.Score(bd.MatchOpt, bd.DistOpt) >= last.opt {
							codes[[2]int{bits.OnesCount64(targetCoord & e.Coord), bits.OnesCount64(targetCoord ^ e.Coord)}] = true
						}
					}
					if limit := len(pairs) + len(codes); calls > limit {
						t.Fatalf("%s by %v prefix %d: %d Score calls, want at most %d pairs + %d tie codes",
							f.Name(), by, prefix, calls, len(pairs), len(codes))
					}
					if 4*calls > slots {
						t.Fatalf("%s by %v prefix %d: %d Score calls for %d entries", f.Name(), by, prefix, calls, slots)
					}
				}
			}
		}
	}
}
