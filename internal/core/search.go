package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"sigtable/internal/signature"
	"sigtable/internal/simfun"
	"sigtable/internal/topk"
	"sigtable/internal/txn"
)

// cancelCheckInterval is how many transaction scans may elapse between
// context-cancellation checks inside a single entry. Checking per
// transaction would put an atomic load on the innermost loop; every 256
// keeps the overhead unmeasurable while still aborting a large entry
// scan within microseconds of a deadline.
const cancelCheckInterval = 256

// SortCriterion selects the order in which signature table entries are
// visited (paper §4 discusses both).
type SortCriterion int

const (
	// ByOptimisticBound visits entries in decreasing optimistic-bound
	// order — the paper's default. With this order the search can stop
	// at the first prunable entry, since all later entries bound lower.
	ByOptimisticBound SortCriterion = iota
	// ByCoordSimilarity orders entries by the similarity function
	// applied to the supercoordinates themselves, the alternative the
	// paper suggests as a better proxy for average-case similarity.
	// Optimistic bounds still drive pruning.
	ByCoordSimilarity
)

// QueryOptions tunes a branch-and-bound search.
type QueryOptions struct {
	// K is the number of neighbors to return (default 1).
	K int
	// MaxScanFraction, in (0, 1], enables early termination after
	// examining that fraction of the database's transactions (§4.2).
	// Zero runs to completion.
	MaxScanFraction float64
	// SortBy selects the entry visiting order.
	SortBy SortCriterion
	// Parallelism bounds the goroutines scanning entries for this one
	// query. 0 selects GOMAXPROCS; 1 forces the serial path. Results
	// are identical at every setting — the parallel engine commits
	// entries in the exact serial visiting order — so this is purely a
	// latency knob. The similarity function must be safe for concurrent
	// Score calls when Parallelism != 1 (every built-in is).
	Parallelism int
	// ReadaheadDepth controls how many upcoming ranked entries the
	// search offers to the store's prefetch pipeline (disk mode with a
	// prefetcher attached; ignored otherwise). 0 uses the pipeline's
	// adaptive depth, a negative value disables prefetch for this
	// query, a positive value fixes the depth. Results are identical
	// at every setting — prefetch only warms the buffer pool.
	ReadaheadDepth int
}

func (o QueryOptions) normalized(n int) (QueryOptions, int, error) {
	if o.K == 0 {
		o.K = 1
	}
	if o.K < 0 {
		return o, 0, fmt.Errorf("core: k=%d must be positive", o.K)
	}
	if o.Parallelism < 0 {
		return o, 0, fmt.Errorf("core: parallelism %d must be non-negative", o.Parallelism)
	}
	budget := n
	if o.MaxScanFraction != 0 {
		if o.MaxScanFraction < 0 || o.MaxScanFraction > 1 {
			return o, 0, fmt.Errorf("core: scan fraction %v outside (0, 1]", o.MaxScanFraction)
		}
		budget = int(math.Ceil(o.MaxScanFraction * float64(n)))
		if budget < 1 {
			budget = 1
		}
	}
	return o, budget, nil
}

// Result reports a query's answer and its cost.
type Result struct {
	// Neighbors are the best candidates found, sorted by decreasing
	// similarity.
	Neighbors []topk.Candidate
	// Scanned is the number of transactions whose similarity was
	// evaluated.
	Scanned int
	// EntriesScanned and EntriesPruned partition the occupied entries
	// that were resolved; entries skipped by early termination are in
	// neither count.
	EntriesScanned int
	EntriesPruned  int
	// PagesRead counts the simulated disk pages this query fetched
	// (disk mode only). It is accounted per query, so it stays accurate
	// when queries run concurrently.
	PagesRead int64
	// Workers is the number of scan goroutines the search actually
	// used (1 for a serial search).
	Workers int
	// EntriesSpeculated counts entries a parallel search scanned ahead
	// of the commit frontier whose work was then discarded because the
	// search resolved first (budget exhausted, prune break, or
	// cancellation). Always 0 for a serial search; the wasted-work
	// metric for tuning Parallelism.
	EntriesSpeculated int
	// Certified reports that the result is provably exact: every
	// unexplored entry's optimistic bound is at most the k-th best
	// value found (§4.2's quality guarantee). Always true when the
	// search ran to completion.
	Certified bool
	// Interrupted reports that the search stopped early because the
	// query's context was cancelled or its deadline expired. The
	// neighbors found so far are still returned, but the result is not
	// Certified unless the certificate already held when the
	// cancellation landed.
	Interrupted bool
	// BestPossible is an upper bound on the value of any transaction in
	// the database (max of the achieved value and all unexplored
	// optimistic bounds); with early termination it quantifies how far
	// from optimal the answer can be.
	BestPossible float64
}

// PruningEfficiency is the paper's headline metric: the percentage of
// the database not examined, when the query ran to completion.
func (r Result) PruningEfficiency(n int) float64 {
	if n == 0 {
		return 0
	}
	return 100 * (1 - float64(r.Scanned)/float64(n))
}

// rankedEntry is an entry with its query-time ordering and pruning
// keys.
type rankedEntry struct {
	e    *Entry
	idx  int     // position in t.entries; keys the batch engine's per-entry state
	opt  float64 // optimistic bound, always used for pruning
	sort float64 // ordering key (== opt for ByOptimisticBound)
	tie  float64 // supercoordinate similarity, breaks sort-key ties
}

// rankedBefore is the visiting order: decreasing sort key, ties broken
// by decreasing supercoordinate similarity, then coordinate. Shared by
// the entry sorts and the batch engine's cross-target entry picking.
// Optimistic bounds tie in droves (hamming yields few distinct D_opt
// values, and every superset of the target's coordinate bounds at
// distance 0). Among ties, visit the entry whose activation pattern
// most resembles the target's first: its transactions are the
// likeliest close matches, which raises the pessimistic bound early
// and drives both pruning and early-termination accuracy.
func rankedBefore(a, b rankedEntry) bool {
	return CompareRanked(a.sort, a.tie, a.e.Coord, b.sort, b.tie, b.e.Coord)
}

// CompareRanked is the entry visiting order as a pure function of the
// ranking keys: decreasing sort key, ties broken by decreasing
// supercoordinate similarity, then increasing coordinate. It reports
// whether entry a is visited before entry b. The rankers, the merge of
// a sharded index's parts and Explain all order by it.
func CompareRanked(sortA, tieA float64, coordA signature.Coord, sortB, tieB float64, coordB signature.Coord) bool {
	if sortA != sortB {
		return sortA > sortB
	}
	if tieA != tieB {
		return tieA > tieB
	}
	return coordA < coordB
}

// rankEntries computes every entry's keys with the naive O(entries×K)
// bound loop and sorts them into visiting order with one full sort by
// CompareRanked, in *buf's storage. It is the LegacyRanker reference
// the byte-identity property tests compare the key ladder against.
func (t *Table) rankEntries(buf *[]rankedEntry, f simfun.Func, overlaps []int, targetCoord signature.Coord, by SortCriterion) []rankedEntry {
	b := t.newBounder(overlaps)
	q := resizeItems(buf, len(t.entries))
	for i, e := range t.entries {
		bd := b.bounds(e.Coord)
		opt := f.Score(bd.MatchOpt, bd.DistOpt)
		sim := coordSimilarity(f, targetCoord, e.Coord)
		key := opt
		if by == ByCoordSimilarity {
			key = sim
		}
		q[i] = rankedEntry{e: e, idx: i, opt: opt, sort: key, tie: sim}
	}
	cmpRanked(q)
	return q
}

// searchSpec carries one search's resolved parameters into the
// execution engines. scan visits an entry's live transactions as
// (TID, similarity value) pairs — single-target queries route it
// through the fused decode-and-score path (scanEntryStats), multi-
// target ones through the materializing scan. It must be safe for
// concurrent calls when the parallel engine may run (Parallelism != 1).
type searchSpec struct {
	k      int
	budget int
	sortBy SortCriterion
	scan   func(e *Entry, reads *atomic.Int64, fn func(id txn.TID, value float64) bool)
	// prefetch, when non-nil, is called with the remaining ranked
	// source right before an entry is scanned; it offers the pages of
	// the next few upcoming entries to the store's prefetch pipeline.
	// The serial and batch engines call it from their single scan
	// goroutine; the parallel engine calls it under its claim mutex.
	prefetch func(src entrySource)
}

// minParallelLive gates the parallel engine: below this many live
// transactions a search is microseconds of work and goroutine startup
// would dominate, so the serial path runs regardless of the requested
// parallelism. A variable (not a constant) so tests can force the
// parallel engine onto small fixtures.
var minParallelLive = 4096

// runSearch drives the branch-and-bound search of Figure 3 over a
// ranked entry source, dispatching between the serial loop and the
// parallel engine (parallel_search.go). Both produce identical
// results — the parallel engine commits entries in the exact serial
// pop order and replays the serial prune/offer/budget decisions at
// the commit frontier — so the choice is purely a latency matter.
func (t *Table) runSearch(ctx context.Context, src entrySource, parallelism int, sp searchSpec) Result {
	workers := parallelism
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > src.Len() {
		workers = src.Len()
	}
	// A context that is already dead does zero work either way; the
	// serial path handles it without spawning anything.
	if workers > 1 && t.live >= minParallelLive && ctx.Err() == nil {
		return t.searchParallel(ctx, src, workers, sp)
	}
	return searchSerial(ctx, src, sp)
}

// searchSerial is the single-goroutine branch-and-bound loop: pop the
// most promising entry, prune it if its optimistic bound cannot beat
// the k-th best found, otherwise scan its transactions through score.
// Cancellation is checked between entry visits and every
// cancelCheckInterval transactions within one, so a deadline aborts
// mid-scan with whatever was found so far. Serial searches of a table
// run it, and so does every search over a sharded index's parts.
func searchSerial(ctx context.Context, src entrySource, sp searchSpec) Result {
	res := Result{Workers: 1}
	var reads atomic.Int64

	best := topk.New(sp.k)
	partialOpt := math.Inf(-1) // bound of an entry cut short by termination
	interrupted := ctx.Err() != nil

	// One scan callback serves every entry. Built inside the loop, it
	// and the variables it captures would be heap-allocated per visited
	// entry.
	stop := false
	inEntry := 0
	offer := func(id txn.TID, v float64) bool {
		best.Offer(id, v)
		res.Scanned++
		inEntry++
		if res.Scanned >= sp.budget {
			stop = true
			return false
		}
		if res.Scanned%cancelCheckInterval == 0 && ctx.Err() != nil {
			interrupted = true
			return false
		}
		return true
	}

	for !interrupted && src.Len() > 0 {
		re := src.Pop()
		if threshold, full := best.Threshold(); full && re.opt <= threshold {
			if sp.sortBy == ByOptimisticBound {
				// Ordered by bound: everything still queued is
				// prunable too.
				res.EntriesPruned += 1 + src.Drop()
				break
			}
			res.EntriesPruned++
			continue
		}
		if sp.prefetch != nil {
			sp.prefetch(src)
		}
		res.EntriesScanned++
		inEntry = 0
		sp.scan(re.e, &reads, offer)
		if stop || interrupted {
			// The budget (or deadline) ran out inside this entry; any
			// unexamined transactions are still bounded by its
			// optimistic bound.
			if inEntry < re.e.Count {
				partialOpt = re.opt
			}
			break
		}
		interrupted = ctx.Err() != nil
	}

	// Optimality certificate over whatever was not resolved.
	maxRemaining := partialOpt
	if v := src.MaxRemainingOpt(); v > maxRemaining {
		maxRemaining = v
	}

	res.Neighbors = best.Results()
	res.Interrupted = interrupted
	threshold, full := best.Threshold()
	res.Certified = full && (math.IsInf(maxRemaining, -1) || maxRemaining <= threshold)
	res.BestPossible = maxRemaining
	if len(res.Neighbors) > 0 && res.Neighbors[0].Value > res.BestPossible {
		res.BestPossible = res.Neighbors[0].Value
	}
	res.PagesRead = reads.Load()
	return res
}

// Query runs the branch-and-bound similarity search of Figure 3 for a
// target transaction under similarity function f.
//
// The context bounds the search: cancellation or a deadline aborts the
// scan between entry visits (and every cancelCheckInterval transactions
// within one) and returns the partial result found so far with
// Interrupted set and, in general, Certified false. An error is
// reserved for invalid inputs; a cancelled search is not an error.
func (t *Table) Query(ctx context.Context, target txn.Transaction, f simfun.Func, opt QueryOptions) (Result, error) {
	return query(ctx, []Part{{Table: t}}, true, target, f, opt)
}

// query is Query over the union of the parts' entries (see parts.go);
// parallel admits the parallel engine for a lone part.
func query(ctx context.Context, parts []Part, parallel bool, target txn.Transaction, f simfun.Func, opt QueryOptions) (Result, error) {
	if ta, ok := f.(simfun.TargetAware); ok {
		f = ta.Bind(target)
	}
	t0 := parts[0].Table
	m := t0.newMatcher(target)
	defer t0.releaseMatcher(m)
	return search(ctx, parts, parallel, opt,
		func(t *Table, sc *queryScratch) entrySource {
			overlaps := t.part.Overlaps(target, sc.overlaps)
			return t.rankSource(sc, f, overlaps, signature.CoordOfOverlaps(overlaps, t.r), opt.SortBy)
		},
		func(p *Part, e *Entry, reads *atomic.Int64, fn func(id txn.TID, value float64) bool) {
			p.Table.scanEntryStats(e, &m, reads, func(id txn.TID, x, y int) bool {
				return fn(p.global(id), f.Score(x, y))
			})
		})
}

// Nearest is shorthand for a run-to-completion single-nearest-neighbor
// query. Unlike Query, a search interrupted before finding any
// candidate reports the context's error.
func (t *Table) Nearest(ctx context.Context, target txn.Transaction, f simfun.Func) (txn.TID, float64, error) {
	res, err := t.Query(ctx, target, f, QueryOptions{K: 1})
	if err != nil {
		return 0, 0, err
	}
	if len(res.Neighbors) == 0 {
		if res.Interrupted {
			return 0, 0, fmt.Errorf("core: search interrupted: %w", ctx.Err())
		}
		return 0, 0, fmt.Errorf("core: empty table")
	}
	return res.Neighbors[0].TID, res.Neighbors[0].Value, nil
}
