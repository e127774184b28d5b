package shard

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"sigtable/internal/cluster"
	"sigtable/internal/core"
	"sigtable/internal/signature"
	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// Shared fixtures (mirroring internal/core's test helpers).

func randomDataset(rng *rand.Rand, n, universe int) *txn.Dataset {
	d := txn.NewDataset(universe)
	numPatterns := 5 + universe/10
	patterns := make([][]txn.Item, numPatterns)
	for i := range patterns {
		size := 2 + rng.Intn(5)
		items := make([]txn.Item, size)
		for j := range items {
			items[j] = txn.Item(rng.Intn(universe))
		}
		patterns[i] = items
	}
	for i := 0; i < n; i++ {
		var items []txn.Item
		for len(items) < 1+rng.Intn(8) {
			p := patterns[rng.Intn(numPatterns)]
			items = append(items, p[rng.Intn(len(p))])
		}
		d.Append(txn.New(items...))
	}
	return d
}

func randomPartition(t testing.TB, rng *rand.Rand, universe, k int) *signature.Partition {
	t.Helper()
	sets, err := cluster.Random(universe, k, rng)
	if err != nil {
		t.Fatal(err)
	}
	part, err := signature.NewPartition(universe, sets)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// randomWide draws a transaction of half the universe's size.
func randomWide(rng *rand.Rand, universe int) txn.Transaction {
	items := make([]txn.Item, universe/2)
	for j := range items {
		items[j] = txn.Item(rng.Intn(universe))
	}
	return txn.New(items...)
}

func randomTarget(rng *rand.Rand, universe int) txn.Transaction {
	items := make([]txn.Item, 1+rng.Intn(8))
	for j := range items {
		items[j] = txn.Item(rng.Intn(universe))
	}
	return txn.New(items...)
}

func allSimFuncs() []simfun.Func {
	return []simfun.Func{
		simfun.Hamming{},
		simfun.Match{},
		simfun.MatchHammingRatio{},
		simfun.Cosine{},
		simfun.Jaccard{},
		simfun.Dice{},
	}
}

// sameResult compares every deterministic Result field. Workers,
// EntriesSpeculated and PagesRead are execution reports, not answers,
// and legitimately differ between the single and sharded engines.
func sameResult(t *testing.T, single, sharded core.Result) bool {
	t.Helper()
	if len(single.Neighbors) != len(sharded.Neighbors) {
		t.Logf("neighbor counts differ: single %d, sharded %d", len(single.Neighbors), len(sharded.Neighbors))
		return false
	}
	for i := range single.Neighbors {
		if single.Neighbors[i] != sharded.Neighbors[i] {
			t.Logf("neighbor %d differs: single %+v, sharded %+v", i, single.Neighbors[i], sharded.Neighbors[i])
			return false
		}
	}
	if single.Scanned != sharded.Scanned ||
		single.EntriesScanned != sharded.EntriesScanned ||
		single.EntriesPruned != sharded.EntriesPruned ||
		single.Certified != sharded.Certified ||
		single.Interrupted != sharded.Interrupted ||
		single.BestPossible != sharded.BestPossible {
		t.Logf("cost/certificate fields differ:\nsingle  %+v\nsharded %+v", single, sharded)
		return false
	}
	return true
}

// mutation scripts one Insert or Delete, applied identically to the
// reference table and every sharded instance.
type mutation struct {
	insert txn.Transaction // nil = delete
	delete txn.TID
}

func randomMutations(rng *rand.Rand, n, universe, count int) []mutation {
	muts := make([]mutation, count)
	next := n
	for i := range muts {
		if rng.Intn(3) == 0 && next > 0 {
			muts[i] = mutation{delete: txn.TID(rng.Intn(next))}
		} else {
			muts[i] = mutation{insert: randomTarget(rng, universe)}
			next++
		}
	}
	return muts
}

var shardCounts = []int{1, 2, 3, 7}

// TestQuickShardedMatchesSingle is the tentpole property: for random
// datasets, partitions, similarity functions, k, entry orderings, scan
// budgets, disk modes, shard counts and mutation interleavings, the
// sharded scatter-gather engine returns byte-identical answers and
// cost counters to a single table over the same data.
func TestQuickShardedMatchesSingle(t *testing.T) {
	prop := func(seed int64, kRaw, fRaw, kNNRaw, sortRaw, fracRaw, mutRaw, diskRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 15 + rng.Intn(30)
		n := 60 + rng.Intn(200)
		d := randomDataset(rng, n, universe)
		part := randomPartition(t, rng, universe, 2+int(kRaw)%8)
		r := 1 + int(kRaw)%2
		pageSize := 0
		if diskRaw%2 == 0 {
			pageSize = 256
		}
		muts := randomMutations(rng, n, universe, int(mutRaw)%40)

		// Reference: one core table over a private copy of the dataset,
		// with the same mutation script applied.
		ref := txn.NewDataset(universe)
		for _, tr := range d.All() {
			ref.Append(tr)
		}
		single, err := core.Build(ref, part, core.BuildOptions{ActivationThreshold: r, PageSize: pageSize})
		if err != nil {
			t.Log(err)
			return false
		}
		for _, m := range muts {
			if m.insert != nil {
				single.Insert(m.insert)
			} else {
				single.Delete(m.delete)
			}
		}

		fs := allSimFuncs()
		f := fs[int(fRaw)%len(fs)]
		opt := core.QueryOptions{K: 1 + int(kNNRaw)%8}
		if sortRaw%2 == 1 {
			opt.SortBy = core.ByCoordSimilarity
		}
		if fracRaw%3 == 0 {
			opt.MaxScanFraction = 0.01 + float64(fracRaw)/255*0.5
		}
		target := randomTarget(rng, universe)
		target2 := randomTarget(rng, universe)
		ctx := context.Background()

		wantQ, err := single.Query(ctx, target, f, opt)
		if err != nil {
			t.Log(err)
			return false
		}
		wantM, err := single.MultiQuery(ctx, []txn.Transaction{target, target2}, f, opt)
		if err != nil {
			t.Log(err)
			return false
		}
		constraints := []core.RangeConstraint{{F: f, Threshold: 0.2}}
		wantR, err := single.RangeQuery(ctx, target, constraints, core.RangeOptions{Parallelism: 1})
		if err != nil {
			t.Log(err)
			return false
		}
		wantE := single.Explain(target, f)

		for _, S := range shardCounts {
			x, err := New(d, part, Options{Shards: S, ActivationThreshold: r, PageSize: pageSize})
			if err != nil {
				t.Log(err)
				return false
			}
			for _, m := range muts {
				if m.insert != nil {
					x.Insert(m.insert)
				} else {
					x.Delete(m.delete)
				}
			}
			if err := x.Validate(); err != nil {
				t.Logf("S=%d: validate: %v", S, err)
				return false
			}
			got, err := x.Query(ctx, target, f, opt)
			if err != nil {
				t.Log(err)
				return false
			}
			if !sameResult(t, wantQ, got) {
				t.Logf("S=%d Query diverged (opt=%+v)", S, opt)
				return false
			}
			gotM, err := x.MultiQuery(ctx, []txn.Transaction{target, target2}, f, opt)
			if err != nil {
				t.Log(err)
				return false
			}
			if !sameResult(t, wantM, gotM) {
				t.Logf("S=%d MultiQuery diverged", S)
				return false
			}
			gotR, err := x.RangeQuery(ctx, target, constraints, core.RangeOptions{})
			if err != nil {
				t.Log(err)
				return false
			}
			if !reflect.DeepEqual(wantR.TIDs, gotR.TIDs) ||
				wantR.Scanned != gotR.Scanned ||
				wantR.EntriesScanned != gotR.EntriesScanned ||
				wantR.EntriesPruned != gotR.EntriesPruned ||
				wantR.Interrupted != gotR.Interrupted {
				t.Logf("S=%d RangeQuery diverged:\nsingle  %+v\nsharded %+v", S, wantR, gotR)
				return false
			}
			gotE := x.Explain(target, f)
			if !reflect.DeepEqual(wantE, gotE) {
				t.Logf("S=%d Explain diverged", S)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// buildFixture is the common deterministic fixture for the focused
// tests below.
func buildFixture(t *testing.T, n, S int, opt Options) (*Index, *core.Table, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	universe := 40
	d := randomDataset(rng, n, universe)
	part := randomPartition(t, rng, universe, 6)
	ref := txn.NewDataset(universe)
	for _, tr := range d.All() {
		ref.Append(tr)
	}
	single, err := core.Build(ref, part, core.BuildOptions{PageSize: opt.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	opt.Shards = S
	x, err := New(d, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	return x, single, rng
}

// TestMutationDoesNotBlockAnyShard is the isolation proof for the
// snapshot engine: with the routing lock and every shard's writer
// mutex held — everything a mutation can hold — a query reads every
// shard's published state and runs to completion without blocking,
// matching the single table. The seed-era RWMutex engine could only
// promise the weaker property that the other shards kept scanning;
// snapshot isolation removes the reader-side lock entirely.
func TestMutationDoesNotBlockAnyShard(t *testing.T) {
	x, single, rng := buildFixture(t, 400, 4, Options{})
	target := randomTarget(rng, 40)
	f := simfun.Jaccard{}
	opt := core.QueryOptions{K: 5}

	want, err := single.Query(context.Background(), target, f, opt)
	if err != nil {
		t.Fatal(err)
	}

	x.route.mu.Lock()
	for _, s := range x.shards {
		s.wmu.Lock()
	}
	defer func() {
		for _, s := range x.shards {
			s.wmu.Unlock()
		}
		x.route.mu.Unlock()
	}()

	done := make(chan core.Result, 1)
	go func() {
		res, err := x.Query(context.Background(), target, f, opt)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case got := <-done:
		if !sameResult(t, want, got) {
			t.Fatal("overlapped query diverged from the single-table result")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query did not complete while every writer lock was held")
	}
	for i, s := range x.shards {
		if s.scans.Load() == 0 {
			t.Fatalf("shard %d was never read — readers appear to take a writer lock", i)
		}
	}
}

// TestShardedConcurrentHammer mixes inserts, deletes and batches that
// repeat one coordinate with cross-shard batch queries, compactions
// and rebalances under -race: no data races, no deadlocks, and the
// index validates afterwards (one owner per coordinate included).
func TestShardedConcurrentHammer(t *testing.T) {
	x, _, rng := buildFixture(t, 300, 3, Options{PageSize: 256})
	f := simfun.MatchHammingRatio{}
	targets := make([]txn.Transaction, 8)
	for i := range targets {
		targets[i] = randomTarget(rng, 40)
	}
	ctx := context.Background()

	done := make(chan struct{})
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if rng.Intn(4) == 0 {
					x.Delete(txn.TID(rng.Intn(x.Len())))
				} else if rng.Intn(8) == 0 {
					x.InsertBatch([]txn.Transaction{randomTarget(rng, 40), randomTarget(rng, 40)})
				} else if rng.Intn(8) == 0 {
					// A wide transaction activates a rare coordinate, often
					// one no shard holds; both copies must join one shard.
					wide := randomWide(rng, 40)
					x.InsertBatch([]txn.Transaction{wide, randomTarget(rng, 40), wide})
				} else {
					x.Insert(randomTarget(rng, 40))
				}
			}
		}(int64(w) + 100)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := x.BatchQuery(ctx, targets, f, core.QueryOptions{K: 3}, 4); err != nil {
					errc <- err
					return
				}
				if _, err := x.RangeQuery(ctx, targets[rng.Intn(len(targets))],
					[]core.RangeConstraint{{F: f, Threshold: 0.3}}, core.RangeOptions{}); err != nil {
					errc <- err
					return
				}
			}
		}(int64(w) + 200)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			op := x.CompactShard
			if i%4 == 3 {
				op = func(int) error { return x.Rebalance() }
			}
			if err := op(i % x.Shards()); err != nil {
				errc <- err
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	select {
	case err := <-errc:
		close(done)
		wg.Wait()
		t.Fatal(err)
	case <-time.After(400 * time.Millisecond):
		close(done)
	}
	wg.Wait() // a worker mid-operation would race Validate
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCutAcrossRebalance: a query racing Rebalance, Insert and
// Delete must read one consistent set of shard states — every shard
// from before a mutation or every shard from after it. A query that
// saw some shards before a Rebalance and others after would count a
// moved transaction twice (or miss it). Each k-NN answer asks for more
// neighbors than there are live transactions and each range answer
// matches everything, so a transaction counted twice shows up as a
// duplicate TID.
func TestSnapshotCutAcrossRebalance(t *testing.T) {
	x, _, _ := buildFixture(t, 600, 3, Options{})
	f := simfun.Hamming{}
	everything := []core.RangeConstraint{{F: f, Threshold: 0}}
	ctx := context.Background()

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		for next := 0; !stop.Load(); {
			for i := 0; i < 5; i++ {
				x.Delete(txn.TID(next))
				next++
			}
			for i := 0; i < 5; i++ {
				x.Insert(randomTarget(rng, 40))
			}
			if err := x.Rebalance(); err != nil {
				errc <- err
				return
			}
		}
	}()
	duplicate := func(ids []txn.TID) (txn.TID, bool) {
		sorted := slices.Clone(ids)
		slices.Sort(sorted)
		for i := 1; i < len(sorted); i++ {
			if sorted[i] == sorted[i-1] {
				return sorted[i], true
			}
		}
		return 0, false
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				target := randomTarget(rng, 40)
				res, err := x.Query(ctx, target, f, core.QueryOptions{K: 1 << 20})
				if err != nil {
					errc <- err
					return
				}
				ids := make([]txn.TID, len(res.Neighbors))
				for i, c := range res.Neighbors {
					ids[i] = c.TID
				}
				if g, dup := duplicate(ids); dup {
					errc <- fmt.Errorf("k-NN answer holds TID %d twice", g)
					return
				}
				rr, err := x.RangeQuery(ctx, target, everything, core.RangeOptions{Parallelism: 1})
				if err != nil {
					errc <- err
					return
				}
				if g, dup := duplicate(rr.TIDs); dup {
					errc <- fmt.Errorf("range answer holds TID %d twice", g)
					return
				}
			}
		}(int64(w) + 10)
	}

	select {
	case err := <-errc:
		stop.Store(true)
		wg.Wait()
		t.Fatal(err)
	case <-time.After(300 * time.Millisecond):
		stop.Store(true)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactShardPreservesResults: compaction remaps shard-local TIDs
// but PRESERVES global TIDs, so neighbors, values and the scanned
// transaction sequence are invariant (entry counters may shrink as
// emptied entries disappear).
func TestCompactShardPreservesResults(t *testing.T) {
	x, _, rng := buildFixture(t, 300, 3, Options{PageSize: 256})
	for i := 0; i < 80; i++ {
		x.Delete(txn.TID(rng.Intn(300)))
	}
	for i := 0; i < 40; i++ {
		x.Insert(randomTarget(rng, 40))
	}
	target := randomTarget(rng, 40)
	f := simfun.Jaccard{}
	opt := core.QueryOptions{K: 6}
	before, err := x.Query(context.Background(), target, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Shards(); i++ {
		if err := x.CompactShard(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	after, err := x.Query(context.Background(), target, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Neighbors, after.Neighbors) || before.Scanned != after.Scanned {
		t.Fatalf("compaction changed results:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestRebalancePreservesResults: redistribution keeps global TIDs, so
// query answers are invariant while shard sizes even out to within the
// largest entry.
func TestRebalancePreservesResults(t *testing.T) {
	x, _, rng := buildFixture(t, 300, 3, Options{})
	// Skew the shards: round-robin inserts are even, so delete a lot
	// from low TIDs (mostly shard 0) and insert fresh.
	for i := 0; i < 90; i++ {
		x.Delete(txn.TID(i))
	}
	for i := 0; i < 60; i++ {
		x.Insert(randomTarget(rng, 40))
	}
	target := randomTarget(rng, 40)
	f := simfun.Cosine{}
	opt := core.QueryOptions{K: 4}
	before, err := x.Query(context.Background(), target, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	stats := x.Stats()
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
	for _, p := range x.load() {
		for _, e := range p.Table.Entries() {
			if e.Count > largest {
				largest = e.Count
			}
		}
	}
	if max-min > largest {
		t.Fatalf("rebalance left shards %d apart, more than the largest entry's %d: %+v", max-min, largest, stats)
	}
	after, err := x.Query(context.Background(), target, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Neighbors, after.Neighbors) || before.Scanned != after.Scanned {
		t.Fatalf("rebalance changed results:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestShardedPersistRoundTrip: WriteTo + Read reproduce an identical
// engine, including after mutations followed by a full compaction of
// the insert overflows.
func TestShardedPersistRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	universe := 40
	d := randomDataset(rng, 250, universe)
	part := randomPartition(t, rng, universe, 6)
	x, err := New(d, part, Options{Shards: 3, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(buf.Bytes()), d)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}

	f := simfun.Dice{}
	for i := 0; i < 10; i++ {
		target := randomTarget(rng, universe)
		want, err := x.Query(context.Background(), target, f, core.QueryOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Query(context.Background(), target, f, core.QueryOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(t, want, got) {
			t.Fatalf("round-tripped index diverged on target %v", target)
		}
	}

	// Tombstones must refuse to persist.
	x.Delete(0)
	if _, err := x.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("persisting a tombstoned index should fail")
	}
	// After compaction the TID space has a hole: still unpersistable,
	// loudly.
	if err := x.CompactShard(0); err != nil {
		t.Fatal(err)
	}
	if _, err := x.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("persisting a holey TID space should fail")
	}
}

// TestNearestAndEmpty covers the small-surface paths: Nearest
// semantics and the all-deleted index.
func TestNearestAndEmpty(t *testing.T) {
	x, single, rng := buildFixture(t, 120, 3, Options{})
	target := randomTarget(rng, 40)
	f := simfun.Jaccard{}
	wantID, wantVal, err := single.Nearest(context.Background(), target, f)
	if err != nil {
		t.Fatal(err)
	}
	gotID, gotVal, err := x.Nearest(context.Background(), target, f)
	if err != nil {
		t.Fatal(err)
	}
	if wantID != gotID || wantVal != gotVal {
		t.Fatalf("nearest diverged: single (%d, %v), sharded (%d, %v)", wantID, wantVal, gotID, gotVal)
	}

	for g := 0; g < x.Len(); g++ {
		x.Delete(txn.TID(g))
	}
	res, err := x.Query(context.Background(), target, f, core.QueryOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 0 || !res.Certified {
		t.Fatalf("empty index result: %+v", res)
	}
	if _, _, err := x.Nearest(context.Background(), target, f); err == nil {
		t.Fatal("nearest on an empty index should fail")
	}
}
