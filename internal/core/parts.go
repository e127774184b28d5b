package core

import (
	"context"
	"math"
	"sync/atomic"

	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// Partitioned search. The sharded engine (internal/shard) splits one
// logical table into parts, one table per shard, each owning whole
// supercoordinates. Two facts make a search over the parts the very
// search a single table over their union would run:
//
//   - Entry keys are functions of the coordinate, the target and the
//     shared partition and threshold alone, and the visiting order
//     (CompareRanked) is a strict total order on them. Each part's
//     ranked source yields its own entries in that order, so taking
//     the best head of the parts' sources at every pop yields the
//     union's order.
//   - A coordinate's entry lives in one part, and a part's TIDs map to
//     index-wide TIDs increasingly, so the entry's scan visits the same
//     transactions in the same order as the union's entry does.
//
// So a partitioned top-k search is searchSerial over a mergedSource:
// the same loop, prune predicate, budget and certificate as a table's
// own search, with nothing replayed.

// Part is one table of a partitioned index with the map from its TIDs
// to index-wide TIDs. Globals is strictly increasing; nil means the
// table's own TIDs are the index-wide ones. The parts of one search
// share a signature partition and activation threshold, and no
// coordinate has an entry in two of them.
type Part struct {
	Table   *Table
	Globals []txn.TID
}

// global maps one of the part table's TIDs to its index-wide TID.
func (p *Part) global(id txn.TID) txn.TID {
	if p.Globals == nil {
		return id
	}
	return p.Globals[id]
}

// QueryParts is Table.Query over the union of the parts' entries: the
// same neighbors, cost counters and certificate as one table holding
// every part's transactions under their index-wide TIDs. It always runs
// the serial loop; opt.Parallelism is validated and otherwise ignored.
func QueryParts(ctx context.Context, parts []Part, target txn.Transaction, f simfun.Func, opt QueryOptions) (Result, error) {
	return query(ctx, parts, false, target, f, opt)
}

// MultiQueryParts is Table.MultiQuery over the union of the parts'
// entries, serial like QueryParts.
func MultiQueryParts(ctx context.Context, parts []Part, targets []txn.Transaction, f simfun.Func, opt QueryOptions) (Result, error) {
	return multiQuery(ctx, parts, false, targets, f, opt)
}

// search runs every top-k search: it ranks each part's entries
// through rank, merges the ranked sources when there are several, and
// runs the branch-and-bound loop, scanning each entry in its part
// through scan. A lone part runs runSearch, which may pick the
// parallel engine when parallel is set; several run searchSerial over
// their merge.
func search(ctx context.Context, parts []Part, parallel bool, opt QueryOptions,
	rank func(t *Table, sc *queryScratch) entrySource,
	scan func(p *Part, e *Entry, reads *atomic.Int64, fn func(id txn.TID, value float64) bool)) (Result, error) {
	live := 0
	for _, p := range parts {
		live += p.Table.live
	}
	opt, budget, err := opt.normalized(live)
	if err != nil {
		return Result{}, err
	}
	if live == 0 {
		return Result{Certified: true}, nil
	}
	sp := searchSpec{k: opt.K, budget: budget, sortBy: opt.SortBy}

	if len(parts) == 1 {
		t := parts[0].Table
		sc := t.getScratch()
		defer t.putScratch(sc)
		sp.prefetch = t.prefetchHook(ctx, opt.ReadaheadDepth)
		sp.scan = func(e *Entry, reads *atomic.Int64, fn func(id txn.TID, value float64) bool) {
			scan(&parts[0], e, reads, fn)
		}
		workers := 1
		if parallel {
			workers = opt.Parallelism
		}
		return t.runSearch(ctx, rank(t, sc), workers, sp), nil
	}

	ms := &mergedSource{srcs: make([]entrySource, len(parts))}
	scratch := make([]*queryScratch, len(parts))
	defer func() {
		for i, sc := range scratch {
			parts[i].Table.putScratch(sc)
		}
	}()
	var hooks []func(entrySource)
	for i, p := range parts {
		scratch[i] = p.Table.getScratch()
		ms.srcs[i] = rank(p.Table, scratch[i])
		ms.left += ms.srcs[i].Len()
		if h := p.Table.prefetchHook(ctx, opt.ReadaheadDepth); h != nil {
			if hooks == nil {
				hooks = make([]func(entrySource), len(parts))
			}
			hooks[i] = h
		}
	}
	if hooks != nil {
		// Each part's pipeline reads ahead along its own ladder.
		sp.prefetch = func(entrySource) {
			for i, h := range hooks {
				if h != nil {
					h(ms.srcs[i])
				}
			}
		}
	}
	sp.scan = func(e *Entry, reads *atomic.Int64, fn func(id txn.TID, value float64) bool) {
		scan(&parts[ms.cur], e, reads, fn)
	}
	return searchSerial(ctx, ms, sp), nil
}

// mergedSource is the entrySource over several parts' ranked sources.
// Pop takes the best head by the visiting order and records its part
// in cur, which the search's scan reads to find the entry's table.
type mergedSource struct {
	srcs []entrySource
	cur  int // part of the most recently popped entry
	left int
}

// head returns the part whose next entry is visited first.
func (m *mergedSource) head() int {
	best := -1
	var top rankedEntry
	for i, s := range m.srcs {
		if s.Len() == 0 {
			continue
		}
		if re := s.Peek(); best < 0 || rankedBefore(re, top) {
			best, top = i, re
		}
	}
	return best
}

func (m *mergedSource) Len() int { return m.left }

func (m *mergedSource) Pop() rankedEntry {
	m.cur = m.head()
	m.left--
	return m.srcs[m.cur].Pop()
}

func (m *mergedSource) Peek() rankedEntry { return m.srcs[m.head()].Peek() }

// Prefix visits each part's upcoming entries in turn: up to n per
// part, an approximation like every source's Prefix.
func (m *mergedSource) Prefix(n int, fn func(rankedEntry)) {
	for _, s := range m.srcs {
		s.Prefix(n, fn)
	}
}

func (m *mergedSource) All(fn func(rankedEntry)) {
	for _, s := range m.srcs {
		s.All(fn)
	}
}

func (m *mergedSource) Drop() int {
	n := 0
	for _, s := range m.srcs {
		n += s.Drop()
	}
	m.left = 0
	return n
}

func (m *mergedSource) MaxRemainingOpt() float64 {
	max := math.Inf(-1)
	for _, s := range m.srcs {
		if v := s.MaxRemainingOpt(); v > max {
			max = v
		}
	}
	return max
}
