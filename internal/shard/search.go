package shard

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"sigtable/internal/core"
	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// Searches. A query loads the published shard states once — its whole
// run is isolated against that vector, the way a single-index query
// runs against the table it loaded — and hands the shards to core as
// the parts of one table. Because a shard owns whole coordinates
// (invariant 2), core's own search loop over the merge of the shards'
// ranked ladders is the single table's search, decision for decision;
// range queries and Explain simply combine the shards' answers.

// read loads the published shard states for one query, counting the
// read on every shard.
func (x *Index) read() states {
	cur := x.load()
	for _, s := range x.shards {
		s.scans.Add(1)
	}
	return cur
}

// Query runs the branch-and-bound k-NN search for one target across
// all shards. The result — neighbors, cost counters, certificate — is
// byte-identical to a single Index over the same data; only PagesRead
// reflects the sharded storage. The search is serial: opt.Parallelism
// is validated and otherwise ignored.
func (x *Index) Query(ctx context.Context, target txn.Transaction, f simfun.Func, opt core.QueryOptions) (core.Result, error) {
	return core.QueryParts(ctx, x.read(), target, f, opt)
}

// MultiQuery is the multi-target average-similarity variant, sharded.
func (x *Index) MultiQuery(ctx context.Context, targets []txn.Transaction, f simfun.Func, opt core.QueryOptions) (core.Result, error) {
	return core.MultiQueryParts(ctx, x.read(), targets, f, opt)
}

// Nearest is the single-nearest-neighbor shorthand, mirroring the
// single index's semantics.
func (x *Index) Nearest(ctx context.Context, target txn.Transaction, f simfun.Func) (txn.TID, float64, error) {
	res, err := x.Query(ctx, target, f, core.QueryOptions{K: 1})
	if err != nil {
		return 0, 0, err
	}
	if len(res.Neighbors) == 0 {
		if res.Interrupted {
			return 0, 0, fmt.Errorf("shard: search interrupted: %w", ctx.Err())
		}
		return 0, 0, fmt.Errorf("shard: empty index")
	}
	return res.Neighbors[0].TID, res.Neighbors[0].Value, nil
}

// Explain computes the bound landscape over every shard's entries —
// the same rows, bounds and order a single table's Explain produces.
func (x *Index) Explain(target txn.Transaction, f simfun.Func) core.Explanation {
	cur := x.load()
	tables := make([]*core.Table, len(cur))
	for i, p := range cur {
		tables[i] = p.Table
	}
	return core.ExplainParts(tables, target, f)
}

// RangeQuery runs the range scan on each shard in turn and combines
// the answers. Range pruning is a per-entry threshold test, and every
// shard prunes with the same bit-identical bounds over entries no other
// shard holds, so the shards' counters sum to the single table's; the
// TIDs, mapped to global, are sorted — byte-identical to the
// single-table result. Each shard's scan uses opt.Parallelism as a
// single table's would; Workers reports the widest.
func (x *Index) RangeQuery(ctx context.Context, target txn.Transaction, constraints []core.RangeConstraint, opt core.RangeOptions) (core.RangeResult, error) {
	var merged core.RangeResult
	for _, p := range x.read() {
		r, err := p.Table.RangeQuery(ctx, target, constraints, opt)
		if err != nil {
			return core.RangeResult{}, err
		}
		for _, local := range r.TIDs {
			merged.TIDs = append(merged.TIDs, p.Globals[local])
		}
		merged.Scanned += r.Scanned
		merged.EntriesScanned += r.EntriesScanned
		merged.EntriesPruned += r.EntriesPruned
		merged.PagesRead += r.PagesRead
		merged.Workers = max(merged.Workers, r.Workers)
		merged.Interrupted = merged.Interrupted || r.Interrupted
	}
	slices.Sort(merged.TIDs)
	return merged, nil
}

// BatchQuery answers one k-NN query per target over a worker pool,
// each slot an independent sharded Query. The semantics mirror the
// single index's independent batch mode: the context is honored per
// target (slots whose search never started return Interrupted with
// zero cost), and an invalid option aborts the batch. batchParallelism
// bounds the pool (0 = GOMAXPROCS).
func (x *Index) BatchQuery(ctx context.Context, targets []txn.Transaction, f simfun.Func, opt core.QueryOptions, batchParallelism int) ([]core.Result, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	parallelism := batchParallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(targets) {
		parallelism = len(targets)
	}

	results := make([]core.Result, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					results[i] = core.Result{Interrupted: true, Workers: 1}
					continue
				}
				results[i], errs[i] = x.Query(ctx, targets[i], f, opt)
			}
		}()
	}
	for i := range targets {
		work <- i
	}
	close(work)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard: batch query %d: %w", i, err)
		}
	}
	return results, nil
}
