package core

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"sigtable/internal/signature"
	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// EntryBound is one row of an Explain: how a signature table entry
// bounds a particular target under a particular similarity function.
// Alongside the raw M_opt/D_opt statistics it carries the directory
// decomposition (directory.go): the coordinate's activation popcount
// and its per-coordinate corrections over the all-inactive baseline,
// so MatchOpt = BaseMatch + DeltaMatch and
// DistOpt = BaseDist + r·ActiveBits + DeltaDist.
type EntryBound struct {
	Coord    signature.Coord
	Count    int
	MatchOpt int
	DistOpt  int
	Bound    float64
	// ActiveBits is the number of signatures the coordinate activates.
	ActiveBits int
	// DeltaMatch is the coordinate's M_opt correction over the
	// explanation's BaseMatch (Σ over activated overlapped signatures of
	// max(0, r_j-r+1); never negative).
	DeltaMatch int
	// DeltaDist is the coordinate's D_opt correction over
	// BaseDist + r·ActiveBits (Σ of the per-signature wD_j terms;
	// never positive).
	DeltaDist int
}

// Explanation describes how a query would unfold: the target's
// activation profile and the per-entry optimistic bounds in visiting
// order. BaseMatch/BaseDist are the bound decomposition's baseline —
// the M_opt/D_opt of a hypothetical all-bits-inactive coordinate —
// shared by every entry row.
type Explanation struct {
	TargetCoord signature.Coord
	Overlaps    []int // r_j per signature
	BaseMatch   int
	BaseDist    int
	Entries     []EntryBound
}

// BoundBase computes the bound decomposition's baseline terms from the
// target's per-signature overlap counts: baseM = Σ_j min(r_j, r-1),
// baseD = Σ_j max(0, r_j-r+1).
func BoundBase(overlaps []int, r int) (baseM, baseD int) {
	for _, rj := range overlaps {
		if rj < r {
			baseM += rj
		} else {
			baseM += r - 1
			baseD += rj - r + 1
		}
	}
	return baseM, baseD
}

// Explain computes the bound landscape for a target under f without
// scanning any transactions. It is the debugging/tuning companion to
// Query: entries at the top are visited first; a good index shows a
// steep bound drop-off (most entries prunable once one strong
// candidate is found).
func (t *Table) Explain(target txn.Transaction, f simfun.Func) Explanation {
	return ExplainParts([]*Table{t}, target, f)
}

// ExplainParts is Explain over the union of the tables' entries — a
// sharded index's parts (parts.go), which share a partition and
// activation threshold.
func ExplainParts(tables []*Table, target txn.Transaction, f simfun.Func) Explanation {
	t0 := tables[0]
	if ta, ok := f.(simfun.TargetAware); ok {
		f = ta.Bind(target)
	}
	overlaps := t0.part.Overlaps(target, nil)
	b := t0.newBounder(overlaps)

	baseM, baseD := BoundBase(overlaps, t0.r)
	targetCoord := signature.CoordOfOverlaps(overlaps, t0.r)
	n := 0
	for _, t := range tables {
		n += len(t.entries)
	}
	ex := Explanation{
		TargetCoord: targetCoord,
		Overlaps:    overlaps,
		BaseMatch:   baseM,
		BaseDist:    baseD,
		Entries:     make([]EntryBound, 0, n),
	}
	ties := make([]float64, 0, n)
	for _, t := range tables {
		for _, e := range t.entries {
			bd := b.bounds(e.Coord)
			pop := bits.OnesCount64(uint64(e.Coord))
			ex.Entries = append(ex.Entries, EntryBound{
				Coord:      e.Coord,
				Count:      e.Count,
				MatchOpt:   bd.MatchOpt,
				DistOpt:    bd.DistOpt,
				Bound:      f.Score(bd.MatchOpt, bd.DistOpt),
				ActiveBits: pop,
				DeltaMatch: bd.MatchOpt - baseM,
				DeltaDist:  bd.DistOpt - baseD - t0.r*pop,
			})
			ties = append(ties, coordSimilarity(f, targetCoord, e.Coord))
		}
	}
	sortVisitingOrder(ex.Entries, ties)
	return ex
}

// sortVisitingOrder sorts explanation rows into the order a search
// visits their entries: CompareRanked over each row's bound, its
// tie-break key ties[i] (the coordinate similarity) and its
// coordinate. ties is permuted along with rows.
func sortVisitingOrder(rows []EntryBound, ties []float64) {
	sort.Sort(visitingOrder{rows, ties})
}

type visitingOrder struct {
	rows []EntryBound
	ties []float64
}

func (o visitingOrder) Len() int { return len(o.rows) }
func (o visitingOrder) Less(i, j int) bool {
	return CompareRanked(o.rows[i].Bound, o.ties[i], o.rows[i].Coord, o.rows[j].Bound, o.ties[j], o.rows[j].Coord)
}
func (o visitingOrder) Swap(i, j int) {
	o.rows[i], o.rows[j] = o.rows[j], o.rows[i]
	o.ties[i], o.ties[j] = o.ties[j], o.ties[i]
}

// String renders the explanation's head (top 10 entries) for human
// consumption.
func (ex Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "target coord %#x, overlaps %v, base M=%d D=%d\n", ex.TargetCoord, ex.Overlaps, ex.BaseMatch, ex.BaseDist)
	fmt.Fprintf(&b, "%18s %8s %6s %6s %10s %4s %4s %5s\n", "coord", "txns", "M_opt", "D_opt", "bound", "act", "dM", "dD")
	for i, e := range ex.Entries {
		if i == 10 {
			fmt.Fprintf(&b, "... and %d more entries\n", len(ex.Entries)-10)
			break
		}
		fmt.Fprintf(&b, "%#18x %8d %6d %6d %10.4f %4d %4d %5d\n",
			e.Coord, e.Count, e.MatchOpt, e.DistOpt, e.Bound, e.ActiveBits, e.DeltaMatch, e.DeltaDist)
	}
	return b.String()
}
