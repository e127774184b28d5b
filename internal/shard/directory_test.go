package shard

import (
	"context"
	"math/rand"
	"testing"

	"sigtable/internal/core"
	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// TestShardedRankerIdentity runs the same sharded queries under the
// legacy heap ranker and the directory ladder, asserting the
// deterministic Result fields match exactly. Every shard ranks its
// own entries and the search merges the shards' ranked sources, so
// this pins the whole sharded path — per-shard ranking and the merge —
// to the legacy visiting order.
func TestShardedRankerIdentity(t *testing.T) {
	defer func() { core.LegacyRanker = false }()
	ctx := context.Background()

	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		universe := 25 + rng.Intn(25)
		d := randomDataset(rng, 200+rng.Intn(200), universe)
		part := randomPartition(t, rng, universe, 4+rng.Intn(6))
		f := simfun.Jaccard{}
		target := randomTarget(rng, universe)
		targets := []txn.Transaction{target, randomTarget(rng, universe), randomTarget(rng, universe)}

		for _, shards := range []int{1, 3} {
			for _, pageSize := range []int{0, 128} {
				x, err := New(d, part, Options{Shards: shards, PageSize: pageSize})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 20; i++ {
					x.Insert(randomTarget(rng, universe))
				}
				x.Delete(txn.TID(rng.Intn(d.Len())))

				for _, by := range []core.SortCriterion{core.ByOptimisticBound, core.ByCoordSimilarity} {
					opt := core.QueryOptions{K: 1 + rng.Intn(5), SortBy: by}
					run := func() (core.Result, core.Result, []core.Result) {
						q, err := x.Query(ctx, target, f, opt)
						if err != nil {
							t.Fatal(err)
						}
						m, err := x.MultiQuery(ctx, targets, f, opt)
						if err != nil {
							t.Fatal(err)
						}
						b, err := x.BatchQuery(ctx, targets, f, opt, 2)
						if err != nil {
							t.Fatal(err)
						}
						return q, m, b
					}
					core.LegacyRanker = true
					q1, m1, b1 := run()
					core.LegacyRanker = false
					q2, m2, b2 := run()

					if !sameResult(t, q1, q2) {
						t.Fatalf("seed %d shards %d page %d by %v: Query diverged across rankers", seed, shards, pageSize, by)
					}
					if !sameResult(t, m1, m2) {
						t.Fatalf("seed %d shards %d page %d by %v: MultiQuery diverged across rankers", seed, shards, pageSize, by)
					}
					for i := range b1 {
						if !sameResult(t, b1[i], b2[i]) {
							t.Fatalf("seed %d shards %d page %d by %v: BatchQuery[%d] diverged across rankers", seed, shards, pageSize, by, i)
						}
					}
				}
				if err := x.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestShardedDirectoryStats pins the aggregated directory surface.
func TestShardedDirectoryStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	universe := 30
	d := randomDataset(rng, 300, universe)
	part := randomPartition(t, rng, universe, 6)
	x, err := New(d, part, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	// Slots sum per-shard entry counts; a coordinate occupied in
	// several shards owns a slot in each, so the sum is at least the
	// global distinct count.
	st := x.DirectoryStats()
	if st.Slots < x.NumEntries() {
		t.Fatalf("Slots = %d, want >= %d", st.Slots, x.NumEntries())
	}
	if st.Bytes <= 0 {
		t.Fatalf("Bytes = %d, want > 0", st.Bytes)
	}
	before := st.Ranks
	if _, err := x.Query(context.Background(), randomTarget(rng, universe), simfun.Cosine{}, core.QueryOptions{K: 3}); err != nil {
		t.Fatal(err)
	}
	if after := x.DirectoryStats().Ranks; after <= before {
		t.Fatalf("Ranks did not advance: %d -> %d", before, after)
	}
}
