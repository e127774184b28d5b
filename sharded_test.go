package sigtable

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
)

// equalResults compares every deterministic Result field; Workers,
// PagesRead and EntriesSpeculated are execution reports and
// legitimately differ between engines.
func equalResults(t *testing.T, label string, want, got Result) {
	t.Helper()
	if len(want.Neighbors) != len(got.Neighbors) {
		t.Fatalf("%s: neighbor counts %d vs %d", label, len(want.Neighbors), len(got.Neighbors))
	}
	for i := range want.Neighbors {
		if want.Neighbors[i] != got.Neighbors[i] {
			t.Fatalf("%s: neighbor %d: %+v vs %+v", label, i, want.Neighbors[i], got.Neighbors[i])
		}
	}
	if want.Scanned != got.Scanned || want.EntriesScanned != got.EntriesScanned ||
		want.EntriesPruned != got.EntriesPruned || want.Certified != got.Certified ||
		want.Interrupted != got.Interrupted || want.BestPossible != got.BestPossible {
		t.Fatalf("%s: cost/certificate fields differ:\nsingle  %+v\nsharded %+v", label, want, got)
	}
}

// TestShardedMatchesSingle is the public half of the identity
// property: a ShardedIndex built by NewSharded answers every query
// byte-identically to the single-table BuildIndex over the same data,
// for several shard counts, through interleaved mutations applied to
// both engines.
func TestShardedMatchesSingle(t *testing.T) {
	for _, S := range []int{1, 2, 3, 7} {
		// Both engines get their own pristine dataset copy: the mutation
		// phase below appends to the backing dataset, so neither instance
		// can be reused across shard counts.
		data := testDataset(t, 2000, 31)
		single, err := BuildIndex(data, IndexOptions{SignatureCardinality: 10})
		if err != nil {
			t.Fatal(err)
		}
		opt := IndexOptions{SignatureCardinality: 10, Shards: S}
		sharded, err := NewSharded(testDataset(t, 2000, 31), opt)
		if err != nil {
			t.Fatal(err)
		}
		if sharded.Shards() != S {
			t.Fatalf("Shards() = %d, want %d", sharded.Shards(), S)
		}

		rng := rand.New(rand.NewSource(int64(40 + S)))
		check := func(stage string) {
			t.Helper()
			for i := 0; i < 6; i++ {
				target := data.Get(TID(rng.Intn(2000)))
				for _, f := range []SimilarityFunc{Cosine{}, Jaccard{}, MatchHammingRatio{}} {
					sOpt := SearchOptions{K: 1 + rng.Intn(6)}
					if rng.Intn(2) == 0 {
						sOpt.SortBy = ByCoordSimilarity
					}
					if rng.Intn(3) == 0 {
						sOpt.MaxScanFraction = 0.05 + rng.Float64()*0.4
					}
					want, err := single.Query(context.Background(), target, f, sOpt)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sharded.Query(context.Background(), target, f, sOpt)
					if err != nil {
						t.Fatal(err)
					}
					equalResults(t, stage, want, got)
				}
			}
			// Multi-target and range paths.
			targets := []Transaction{data.Get(7), data.Get(1234)}
			want, err := single.MultiQuery(context.Background(), targets, Dice{}, SearchOptions{K: 4})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.MultiQuery(context.Background(), targets, Dice{}, SearchOptions{K: 4})
			if err != nil {
				t.Fatal(err)
			}
			equalResults(t, stage+"/multi", want, got)

			constraints := []RangeConstraint{{F: Jaccard{}, Threshold: 0.4}}
			wr, err := single.RangeQuery(context.Background(), data.Get(7), constraints, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			gr, err := sharded.RangeQuery(context.Background(), data.Get(7), constraints, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(wr.TIDs) != len(gr.TIDs) || wr.Scanned != gr.Scanned ||
				wr.EntriesScanned != gr.EntriesScanned || wr.EntriesPruned != gr.EntriesPruned {
				t.Fatalf("%s/range: %+v vs %+v", stage, wr, gr)
			}
			for i := range wr.TIDs {
				if wr.TIDs[i] != gr.TIDs[i] {
					t.Fatalf("%s/range: tid %d: %d vs %d", stage, i, wr.TIDs[i], gr.TIDs[i])
				}
			}
		}

		check("fresh")

		// Interleave inserts and deletes, mirrored on both engines, and
		// require identity to hold at every step boundary.
		mrng := rand.New(rand.NewSource(int64(90 + S)))
		for step := 0; step < 30; step++ {
			if mrng.Intn(3) == 0 {
				id := TID(mrng.Intn(single.Len()))
				a, b := single.Delete(id), sharded.Delete(id)
				if a != b {
					t.Fatalf("delete %d: single %v, sharded %v", id, a, b)
				}
			} else {
				tr := data.Get(TID(mrng.Intn(2000)))
				a, b := single.Insert(tr), sharded.Insert(tr)
				if a != b {
					t.Fatalf("insert assigned %d vs %d", a, b)
				}
			}
		}
		if err := sharded.Validate(); err != nil {
			t.Fatal(err)
		}
		check("mutated")
	}
}

// TestBatchQueryUnifiedOptions: the single-SearchOptions batch form
// and the deprecated two-struct form return identical results, on both
// engines, and the sharded batch matches the single-table batch.
func TestBatchQueryUnifiedOptions(t *testing.T) {
	data := testDataset(t, 1500, 33)
	single, err := BuildIndex(data, IndexOptions{SignatureCardinality: 9})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(testDataset(t, 1500, 33), IndexOptions{SignatureCardinality: 9, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]Transaction, 10)
	for i := range targets {
		targets[i] = data.Get(TID(i * 100))
	}
	ctx := context.Background()

	unified, err := single.BatchQuery(ctx, targets, Cosine{}, SearchOptions{K: 3, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := single.BatchQuery(ctx, targets, Cosine{}, QueryOptions{K: 3}, BatchOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := single.BatchQuery(ctx, targets, Cosine{}, SearchOptions{K: 3, SharedScan: true})
	if err != nil {
		t.Fatal(err)
	}
	overShards, err := sharded.BatchQuery(ctx, targets, Cosine{}, SearchOptions{K: 3, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range unified {
		equalResults(t, "legacy form", unified[i], legacy[i])
		equalResults(t, "shared scan", unified[i], shared[i])
		equalResults(t, "sharded batch", unified[i], overShards[i])
	}
}

// TestPersistEnvelope: both engines round-trip through the versioned
// envelope, ReadEngine dispatches on the kind, the cross-kind readers
// refuse with a pointer to the right one, and a headerless seed-era
// file still loads.
func TestPersistEnvelope(t *testing.T) {
	data := testDataset(t, 1200, 35)
	single, err := BuildIndex(data, IndexOptions{SignatureCardinality: 9})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(data, IndexOptions{SignatureCardinality: 9, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	target := data.Get(42)
	query := func(e Engine) Result {
		t.Helper()
		res, err := e.Query(context.Background(), target, Jaccard{}, SearchOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	var sbuf, xbuf bytes.Buffer
	if _, err := single.WriteTo(&sbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.WriteTo(&xbuf); err != nil {
		t.Fatal(err)
	}

	loadedSingle, err := ReadIndex(bytes.NewReader(sbuf.Bytes()), data)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, "single round trip", query(single), query(loadedSingle))

	loadedSharded, err := ReadSharded(bytes.NewReader(xbuf.Bytes()), data)
	if err != nil {
		t.Fatal(err)
	}
	if loadedSharded.Shards() != 3 {
		t.Fatalf("round-tripped shards = %d", loadedSharded.Shards())
	}
	equalResults(t, "sharded round trip", query(sharded), query(loadedSharded))

	// ReadEngine dispatches on the envelope kind.
	e1, err := ReadEngine(bytes.NewReader(sbuf.Bytes()), data)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e1.(*Index); !ok {
		t.Fatalf("ReadEngine(single file) = %T", e1)
	}
	e2, err := ReadEngine(bytes.NewReader(xbuf.Bytes()), data)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e2.(*ShardedIndex); !ok {
		t.Fatalf("ReadEngine(sharded file) = %T", e2)
	}

	// Cross-kind loads fail loudly, naming the right reader.
	if _, err := ReadIndex(bytes.NewReader(xbuf.Bytes()), data); err == nil || !strings.Contains(err.Error(), "ReadSharded") {
		t.Fatalf("ReadIndex(sharded file) = %v", err)
	}
	if _, err := ReadSharded(bytes.NewReader(sbuf.Bytes()), data); err == nil || !strings.Contains(err.Error(), "ReadIndex") {
		t.Fatalf("ReadSharded(single file) = %v", err)
	}

	// A headerless seed-era file (the raw core table image) loads one
	// format generation back.
	var legacy bytes.Buffer
	if _, err := single.Table().WriteTo(&legacy); err != nil {
		t.Fatal(err)
	}
	loadedLegacy, err := ReadIndex(bytes.NewReader(legacy.Bytes()), data)
	if err != nil {
		t.Fatalf("headerless file refused: %v", err)
	}
	equalResults(t, "legacy round trip", query(single), query(loadedLegacy))
	if _, err := ReadSharded(bytes.NewReader(legacy.Bytes()), data); err == nil {
		t.Fatal("ReadSharded accepted a headerless single-table file")
	}

	// Garbage is rejected, not misparsed.
	if _, err := ReadIndex(bytes.NewReader([]byte("not an index")), data); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestShardedMaintenance: Engine-level Compact preserves global TIDs
// on the sharded engine (unlike the single index's renumbering),
// Rebalance evens the shards to within the largest entry, and
// ShardStats reports per-shard state.
func TestShardedMaintenance(t *testing.T) {
	data := testDataset(t, 1200, 37)
	sharded, err := NewSharded(data, IndexOptions{SignatureCardinality: 9, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 150; i++ {
		sharded.Delete(TID(rng.Intn(1200)))
	}
	target := data.Get(11)
	before, err := sharded.Query(context.Background(), target, Cosine{}, SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := sharded.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := sharded.Query(context.Background(), target, Cosine{}, SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Global TIDs survive compaction, so the neighbor lists agree
	// exactly (entry counters may shrink as emptied entries vanish).
	if len(before.Neighbors) != len(after.Neighbors) {
		t.Fatalf("compaction changed neighbor count: %d vs %d", len(before.Neighbors), len(after.Neighbors))
	}
	for i := range before.Neighbors {
		if before.Neighbors[i] != after.Neighbors[i] {
			t.Fatalf("compaction moved neighbor %d: %+v vs %+v", i, before.Neighbors[i], after.Neighbors[i])
		}
	}
	if err := sharded.Validate(); err != nil {
		t.Fatal(err)
	}

	stats := sharded.ShardStats()
	if len(stats) != 3 {
		t.Fatalf("ShardStats rows = %d", len(stats))
	}
	totalLive := 0
	for i, st := range stats {
		if st.Shard != i {
			t.Fatalf("stats row %d labeled shard %d", i, st.Shard)
		}
		if st.Scans == 0 {
			t.Fatalf("shard %d reports zero query fan-outs", i)
		}
		totalLive += st.Live
	}
	if totalLive != sharded.Live() {
		t.Fatalf("shard live sum %d != Live() %d", totalLive, sharded.Live())
	}

	if err := sharded.Rebalance(); err != nil {
		t.Fatal(err)
	}
	stats = sharded.ShardStats()
	min, max := stats[0].Live, stats[0].Live
	for _, st := range stats {
		if st.Live < min {
			min = st.Live
		}
		if st.Live > max {
			max = st.Live
		}
	}
	// Whole coordinates move, so the greedy assignment bounds the
	// spread by the largest entry rather than by one transaction.
	largest := 0
	for _, e := range sharded.Explain(target, Cosine{}).Entries {
		if e.Count > largest {
			largest = e.Count
		}
	}
	if max-min > largest {
		t.Fatalf("rebalance left shards %d apart, more than the largest entry's %d: %+v", max-min, largest, stats)
	}
	rebal, err := sharded.Query(context.Background(), target, Cosine{}, SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range before.Neighbors {
		if before.Neighbors[i] != rebal.Neighbors[i] {
			t.Fatalf("rebalance moved neighbor %d", i)
		}
	}
}

// TestEngineInterface drives both engines through the shared Engine
// surface, the contract the server builds on.
func TestEngineInterface(t *testing.T) {
	data := testDataset(t, 800, 39)
	single, err := BuildIndex(data, IndexOptions{SignatureCardinality: 8})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(testDataset(t, 800, 39), IndexOptions{SignatureCardinality: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{single, sharded} {
		if e.K() != 8 || e.Len() != 800 || e.Live() != 800 {
			t.Fatalf("%T: K=%d Len=%d Live=%d", e, e.K(), e.Len(), e.Live())
		}
		id := e.Insert(NewTransaction(1, 2, 3))
		if id != 800 {
			t.Fatalf("%T: insert assigned %d", e, id)
		}
		if got := e.Items(id); !got.Equal(NewTransaction(1, 2, 3)) {
			t.Fatalf("%T: Items(%d) = %v", e, id, got)
		}
		if !e.Delete(id) {
			t.Fatalf("%T: delete failed", e)
		}
		if _, _, err := e.Nearest(context.Background(), data.Get(1), Jaccard{}); err != nil {
			t.Fatalf("%T: %v", e, err)
		}
		if ex := e.Explain(data.Get(1), Jaccard{}); len(ex.Entries) == 0 {
			t.Fatalf("%T: empty explanation", e)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("%T: %v", e, err)
		}
	}
}
