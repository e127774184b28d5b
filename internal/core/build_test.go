package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sigtable/internal/pager"
	"sigtable/internal/signature"
	"sigtable/internal/txn"
)

// TestQuickGroupCoords: over random datasets and signature
// cardinalities, the built entries are strictly coordinate-ordered,
// every entry's TIDs are exactly {i : coord(i) = c} in ascending order,
// memory-mode TID lists are exact-size (cap == len), and a disk-mode
// build of the same data holds the same entries and validates. Wide
// random coordinates, up to 64 bits, exercise every radix digit.
func TestQuickGroupCoords(t *testing.T) {
	prop := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 30 + rng.Intn(50)
		d := randomDataset(rng, 50+rng.Intn(400), universe)
		part := randomPartition(t, rng, universe, 1+int(kRaw)%24)
		r := 1 + rng.Intn(2)
		tab := buildTestTable(t, d, part, BuildOptions{ActivationThreshold: r})
		coords := make([]signature.Coord, d.Len())
		for i, tr := range d.All() {
			coords[i] = part.Coord(tr, r)
		}
		if !groupedExactly(t, tab.entries, coords) {
			return false
		}
		// On pages, the same entries hold the same TIDs and validate.
		disk := BuildOptions{ActivationThreshold: r, PageSize: 128 + 8*rng.Intn(64), PageFormat: []pager.Format{pager.FormatV1, pager.FormatV2}[rng.Intn(2)]}
		if rng.Intn(2) == 0 {
			disk.BufferPoolPages = 8
		}
		paged := buildTestTable(t, d, part, disk)
		if err := paged.Validate(); err != nil {
			t.Logf("disk build %+v invalid: %v", disk, err)
			return false
		}
		for i, e := range paged.entries {
			if e.Coord != tab.entries[i].Coord || !slices.Equal(paged.TIDs(e), tab.entries[i].tids) {
				t.Logf("disk build %+v: entry %d differs", disk, i)
				return false
			}
		}

		k := 1 + rng.Intn(64)
		pool := make([]signature.Coord, 1+rng.Intn(20))
		for i := range pool {
			pool[i] = signature.Coord(rng.Uint64() >> (64 - k))
		}
		wide := make([]signature.Coord, 1+rng.Intn(300))
		for i := range wide {
			wide[i] = pool[rng.Intn(len(pool))]
		}
		return groupedExactly(t, groupCoords(wide, k), wide)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// groupedExactly compares entries with the brute-force grouping of
// coords.
func groupedExactly(t *testing.T, entries []*Entry, coords []signature.Coord) bool {
	t.Helper()
	want := make(map[signature.Coord][]txn.TID)
	for i, c := range coords {
		want[c] = append(want[c], txn.TID(i))
	}
	if len(entries) != len(want) {
		t.Logf("%d entries, want %d", len(entries), len(want))
		return false
	}
	for i, e := range entries {
		if i > 0 && entries[i-1].Coord >= e.Coord {
			t.Logf("entry %d: coordinate %#x after %#x", i, e.Coord, entries[i-1].Coord)
			return false
		}
		if !slices.Equal(e.tids, want[e.Coord]) || e.Count != len(e.tids) {
			t.Logf("entry %#x: TIDs %v (count %d), want %v", e.Coord, e.tids, e.Count, want[e.Coord])
			return false
		}
		if cap(e.tids) != len(e.tids) {
			t.Logf("entry %#x: cap %d != len %d", e.Coord, cap(e.tids), len(e.tids))
			return false
		}
	}
	return true
}

// TestSnapshotInsertKeepsNeighborTIDs: the built entries share one TID
// array, so a snapshot insert into an entry must not write into the
// next entry's TIDs — in the new snapshot or the old one.
func TestSnapshotInsertKeepsNeighborTIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randomDataset(rng, 400, 40)
	tab := buildTestTable(t, d, randomPartition(t, rng, 40, 6), BuildOptions{})
	if len(tab.entries) < 2 {
		t.Fatal("fixture has fewer than two entries")
	}
	first, second := tab.entries[0], tab.entries[1]
	want := slices.Clone(second.tids)

	next, id := tab.InsertSnapshot(d.Get(first.tids[0]))
	if got := next.TIDs(next.entries[0]); got[len(got)-1] != id {
		t.Fatalf("inserted TID %d not last in its entry: %v", id, got)
	}
	for _, tb := range []*Table{tab, next} {
		if got := tb.TIDs(tb.entries[1]); !slices.Equal(got, want) {
			t.Fatalf("neighbor entry TIDs = %v, want %v", got, want)
		}
	}
}

// TestBuildStatsRecorded: every build records phase wall times, and
// Rebuild records its own.
func TestBuildStatsRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randomDataset(rng, 300, 25)
	part := randomPartition(t, rng, 25, 5)

	table := buildTestTable(t, d, part, BuildOptions{PageSize: 256})
	st := table.BuildStats()
	if st.Total() <= 0 {
		t.Fatalf("Total = %v, want > 0", st.Total())
	}
	if st.Write <= 0 {
		t.Fatalf("Write = %v, want > 0 in disk mode", st.Write)
	}

	table.Delete(1)
	rebuilt, err := table.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.BuildStats().Write <= 0 {
		t.Fatalf("rebuilt Write = %v, want > 0 in disk mode", rebuilt.BuildStats().Write)
	}
	if err := rebuilt.Validate(); err != nil {
		t.Fatal(err)
	}
}
