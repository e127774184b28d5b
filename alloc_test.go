package sigtable

import (
	"context"
	"testing"
)

// TestQueryAllocations pins the steady-state allocations of one
// in-memory k-NN query. The search loop builds its per-entry scan
// callback once per query, so the count does not grow with the entries
// a query visits: a serial single-table query allocates at most 32
// objects, and a query over two shards at most 64.
func TestQueryAllocations(t *testing.T) {
	data := testDataset(t, 4000, 41)
	single, err := BuildIndex(data, IndexOptions{SignatureCardinality: 12})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(data, IndexOptions{SignatureCardinality: 12, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Targets from another generator seed are rarely indexed, so a
	// query visits many entries before its certificate closes.
	queries := testDataset(t, 32, 43)
	targets := queries.All()
	ctx := context.Background()
	for _, c := range []struct {
		name  string
		e     Engine
		opt   SearchOptions
		limit float64
	}{
		{"serial", single, SearchOptions{K: 1, Parallelism: 1}, 32},
		{"sharded-2", sharded, SearchOptions{K: 1}, 64},
	} {
		visited, i := 0, 0
		allocs := testing.AllocsPerRun(64, func() {
			res, err := c.e.Query(ctx, targets[i%len(targets)], Cosine{}, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			visited += res.EntriesScanned
			i++
		})
		t.Logf("%s: %.1f allocs/query, %.1f entries scanned/query", c.name, allocs, float64(visited)/float64(i))
		if allocs > c.limit {
			t.Errorf("%s query allocates %.1f objects, want at most %.0f", c.name, allocs, c.limit)
		}
	}
}
