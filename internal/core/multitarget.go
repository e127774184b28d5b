package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"sigtable/internal/signature"
	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// MultiQuery runs the multi-target variant of §4.3: find the k
// transactions maximizing the *average* similarity to a set of targets
// under f. The optimistic bound of an entry is the average of its
// per-target optimistic bounds, which upper-bounds the average
// similarity of every indexed transaction, so branch-and-bound pruning
// carries over unchanged. The context bounds the search exactly as in
// Query.
func (t *Table) MultiQuery(ctx context.Context, targets []txn.Transaction, f simfun.Func, opt QueryOptions) (Result, error) {
	return multiQuery(ctx, []Part{{Table: t}}, true, targets, f, opt)
}

// multiQuery is MultiQuery over the union of the parts' entries (see
// parts.go); parallel admits the parallel engine for a lone part.
func multiQuery(ctx context.Context, parts []Part, parallel bool, targets []txn.Transaction, f simfun.Func, opt QueryOptions) (Result, error) {
	if len(targets) == 0 {
		return Result{}, fmt.Errorf("core: multi-target query needs at least one target")
	}
	t0 := parts[0].Table
	mt := t0.newMultiTarget(targets, f)
	defer mt.release(t0)
	return search(ctx, parts, parallel, opt,
		func(t *Table, sc *queryScratch) entrySource {
			return t.rankMulti(sc, mt, opt.SortBy)
		},
		// Multi-target scoring probes every matcher per candidate, so
		// it materializes each transaction once rather than fusing N
		// decode passes; the single-target engines use scanEntryStats.
		func(p *Part, e *Entry, reads *atomic.Int64, fn func(id txn.TID, value float64) bool) {
			p.Table.scanEntry(e, reads, func(id txn.TID, tr txn.Transaction) bool {
				return fn(p.global(id), mt.score(tr))
			})
		})
}

// multiTarget is a multi-target query's per-target state: f bound to
// each target, the target's bounder and coordinate for ranking, and a
// scoring kernel. Built against one table, it ranks and scores the
// entries of every table sharing that table's partition and
// activation threshold.
type multiTarget struct {
	fs       []simfun.Func
	bounders []*bounder
	coords   []signature.Coord
	matchers []matcher
	invN     float64
}

func (t *Table) newMultiTarget(targets []txn.Transaction, f simfun.Func) *multiTarget {
	mt := &multiTarget{
		fs:       make([]simfun.Func, len(targets)),
		bounders: make([]*bounder, len(targets)),
		coords:   make([]signature.Coord, len(targets)),
		matchers: make([]matcher, len(targets)),
		invN:     1 / float64(len(targets)),
	}
	for i, tgt := range targets {
		fi := f
		if ta, ok := f.(simfun.TargetAware); ok {
			fi = ta.Bind(tgt)
		}
		mt.fs[i] = fi
		mt.bounders[i] = t.newBounder(t.part.Overlaps(tgt, nil))
		mt.coords[i] = t.part.Coord(tgt, t.r)
		// Each matcher holds a pooled membership bitmap when the
		// universe permits.
		mt.matchers[i] = t.newMatcher(tgt)
	}
	return mt
}

// release returns the matchers' bitmaps to the pool of t, the table
// the query was built against.
func (mt *multiTarget) release(t *Table) {
	for _, m := range mt.matchers {
		t.releaseMatcher(m)
	}
}

// rankMulti ranks every entry of t by the per-target averages of the
// optimistic bound and the coordinate similarity.
func (t *Table) rankMulti(sc *queryScratch, mt *multiTarget, by SortCriterion) entrySource {
	items := resizeItems(&sc.items, len(t.entries))
	for i, e := range t.entries {
		optSum, simSum := 0.0, 0.0
		for j, f := range mt.fs {
			bd := mt.bounders[j].bounds(e.Coord)
			optSum += f.Score(bd.MatchOpt, bd.DistOpt)
			simSum += coordSimilarity(f, mt.coords[j], e.Coord)
		}
		avgOpt, avgSim := optSum*mt.invN, simSum*mt.invN
		key := avgOpt
		if by == ByCoordSimilarity {
			key = avgSim
		}
		items[i] = rankedEntry{e: e, idx: i, opt: avgOpt, sort: key, tie: avgSim}
	}
	return t.wrapRanked(sc, items, by)
}

// score is a transaction's average similarity to the targets.
func (mt *multiTarget) score(tr txn.Transaction) float64 {
	sum := 0.0
	for i := range mt.matchers {
		x, y := mt.matchers[i].matchHamming(tr)
		sum += mt.fs[i].Score(x, y)
	}
	return sum * mt.invN
}
