package sigtable

import (
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The public-API half of the prefetch test suite: the pipeline's
// byte-identity and goroutine hygiene proven through Index and
// ShardedIndex rather than the internal core.Table. `make
// race-prefetch` runs these under the race detector.

// waitGoroutines polls until the live goroutine count drops to at most
// want, failing after five seconds. Counting goroutines is inherently
// racy against the runtime's own background work, so the assertions
// here compare against a baseline taken in the same test.
func waitGoroutines(t *testing.T, label string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines still live, want <= %d", label, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPrefetchHammer is the disk-mode concurrency proof for the
// prefetch pipeline: parallel queries at several readahead depths race
// inserts, deletes and full compactions against a file-backed pooled
// store with prefetch workers attached. Compact swaps the table (and
// stops the old store's workers) while searches are mid-flight;
// nothing here may race, deadlock, leak, or corrupt the index.
func TestPrefetchHammer(t *testing.T) {
	data := testDataset(t, 400, 31)
	idx, err := BuildIndex(data, IndexOptions{
		SignatureCardinality: 8,
		PageSize:             256,
		PageFile:             filepath.Join(t.TempDir(), "pages.dat"),
		BufferPoolPages:      64,
		DecodeCacheBytes:     1 << 17,
		PrefetchWorkers:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	universe := data.UniverseSize()
	newTarget := func(rng *rand.Rand) Transaction {
		items := make([]Item, 0, 8)
		for len(items) < 3 {
			items = append(items, Item(rng.Intn(universe)))
		}
		return NewTransaction(items...)
	}

	const (
		queryWorkers   = 4
		queriesPerGoro = 50
		inserts        = 120
		deleteAttempts = 80
		compactions    = 3
	)

	var wg sync.WaitGroup
	fail := make(chan error, queryWorkers+3)

	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < queriesPerGoro; i++ {
				target := newTarget(rng)
				// Cycle the readahead contract: adaptive, fixed, disabled.
				opt := SearchOptions{K: 3, ReadaheadDepth: []int{0, 4, -1}[i%3]}
				switch i % 3 {
				case 0:
					if _, err := idx.Query(context.Background(), target, Jaccard{}, opt); err != nil {
						fail <- err
						return
					}
				case 1:
					if _, err := idx.MultiQuery(context.Background(), []Transaction{target, newTarget(rng)}, Cosine{}, opt); err != nil {
						fail <- err
						return
					}
				case 2:
					opt.SharedScan = i%2 == 0
					opt.Parallelism = 2
					if _, err := idx.BatchQuery(context.Background(), []Transaction{target, newTarget(rng)}, Jaccard{}, opt); err != nil {
						fail <- err
						return
					}
				}
			}
		}(int64(300 + w))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < inserts; i++ {
			idx.Insert(newTarget(rng))
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(10))
		for i := 0; i < deleteAttempts; i++ {
			idx.Delete(TID(rng.Intn(400)))
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < compactions; i++ {
			time.Sleep(5 * time.Millisecond)
			if err := idx.Compact(); err != nil {
				fail <- err
				return
			}
		}
	}()

	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	if err := idx.Validate(); err != nil {
		t.Fatalf("index invalid after prefetch hammer: %v", err)
	}
}

// TestPrefetchShardedMatchesSingle extends the sharded/single identity
// property to the prefetch pipeline: a ShardedIndex whose shards carry
// pooled stores with prefetch workers answers byte-identically to a
// plain in-memory Index, at every readahead depth.
func TestPrefetchShardedMatchesSingle(t *testing.T) {
	data := testDataset(t, 1500, 31)
	single, err := BuildIndex(data, IndexOptions{SignatureCardinality: 10})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(testDataset(t, 1500, 31), IndexOptions{
		SignatureCardinality: 10,
		Shards:               3,
		PageSize:             256,
		BufferPoolPages:      2048,
		PrefetchWorkers:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 12; i++ {
		target := data.Get(TID(rng.Intn(1500)))
		for _, depth := range []int{0, 1, 8, -1} {
			opt := SearchOptions{K: 5, ReadaheadDepth: depth}
			want, err := single.Query(context.Background(), target, Cosine{}, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.Query(context.Background(), target, Cosine{}, opt)
			if err != nil {
				t.Fatal(err)
			}
			equalResults(t, "prefetch sharded", want, got)
		}
	}
}

// TestPrefetchCloseReleasesGoroutines: Index.Close and
// ShardedIndex.Close must reap every prefetch worker, and a Compact
// table swap must stop the replaced store's workers instead of
// stranding them behind the new table.
func TestPrefetchCloseReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	data := testDataset(t, 300, 31)
	run := func(rng *rand.Rand, q interface {
		Query(context.Context, Transaction, SimilarityFunc, SearchOptions) (Result, error)
	}) {
		t.Helper()
		for i := 0; i < 8; i++ {
			target := data.Get(TID(rng.Intn(300)))
			if _, err := q.Query(context.Background(), target, Jaccard{}, SearchOptions{K: 3, ReadaheadDepth: 4}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(88))

	idx, err := BuildIndex(data, IndexOptions{
		SignatureCardinality: 8,
		PageSize:             256,
		PageFile:             filepath.Join(t.TempDir(), "pages.dat"),
		BufferPoolPages:      64,
		PrefetchWorkers:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	run(rng, idx)
	// Compact swaps in a fresh table; the old store's workers must be
	// gone once the swap settles, so repeated compactions cannot
	// accumulate goroutines.
	withWorkers := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if err := idx.Compact(); err != nil {
			t.Fatal(err)
		}
		run(rng, idx)
	}
	waitGoroutines(t, "after compactions", withWorkers)
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, "after Index.Close", base)

	sharded, err := NewSharded(testDataset(t, 300, 31), IndexOptions{
		SignatureCardinality: 8,
		Shards:               3,
		PageSize:             256,
		BufferPoolPages:      256,
		PrefetchWorkers:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	run(rng, sharded)
	if err := sharded.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, "after ShardedIndex.Close", base)
}
