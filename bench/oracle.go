package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"sigtable"
)

// funcs are the similarity functions the k-NN ops cycle through, with
// the names the HTTP API knows them by.
var funcs = [...]struct {
	name string
	f    sigtable.SimilarityFunc
}{
	{"cosine", sigtable.Cosine{}},
	{"hamming", sigtable.HammingSimilarity{}},
	{"ratio", sigtable.MatchHammingRatio{}},
}

// The range op's conjunction: at least 4 shared items and a hamming
// distance of at most 10 (hamming similarity 1/(1+y) >= 1/11).
var rangeConstraints = []sigtable.RangeConstraint{
	{F: sigtable.MatchSimilarity{}, Threshold: 4},
	{F: sigtable.HammingSimilarity{}, Threshold: 1.0 / 11},
}

// topK is the deepest k any op asks for (the batch slots).
const topK = 5

// binder is implemented by target-aware similarity functions (cosine).
type binder interface {
	Bind(sigtable.Transaction) sigtable.SimilarityFunc
}

func bind(f sigtable.SimilarityFunc, target sigtable.Transaction) sigtable.SimilarityFunc {
	if b, ok := f.(binder); ok {
		return b.Bind(target)
	}
	return f
}

// score evaluates f between the target and x from their match count and
// hamming distance, exactly as the index does.
func score(f sigtable.SimilarityFunc, target, x sigtable.Transaction) float64 {
	m := sigtable.Match(target, x)
	return f.Score(m, len(target)+len(x)-2*m)
}

func inRange(target, x sigtable.Transaction) bool {
	m := sigtable.Match(target, x)
	y := len(target) + len(x) - 2*m
	for _, c := range rangeConstraints {
		if c.F.Score(m, y) < c.Threshold {
			return false
		}
	}
	return true
}

// oracle holds brute-force answers over the base dataset for every
// target in the pool: the topK best values under each function and the
// exact range-query TID set. The base transactions are never deleted
// during a run, so every answer must be at least as good as these.
type oracle struct {
	base    *sigtable.Dataset
	targets []sigtable.Transaction
	top     [][len(funcs)][topK]float64
	ranged  [][]sigtable.TID
	hi      map[[2]int][]float64 // (target, fn) -> topK over base ∪ every inserted transaction
}

// newOracle scans the base dataset once per target. Every similarity is a
// function of (match, hamming), so a histogram over (match count,
// transaction length) replaces per-transaction scoring.
func newOracle(base *sigtable.Dataset, targets []sigtable.Transaction) *oracle {
	o := &oracle{
		base:    base,
		targets: targets,
		top:     make([][len(funcs)][topK]float64, len(targets)),
		ranged:  make([][]sigtable.TID, len(targets)),
		hi:      make(map[[2]int][]float64),
	}
	all := base.All()
	postings := make([][]sigtable.TID, base.UniverseSize())
	maxLen := 0
	for tid, t := range all {
		maxLen = max(maxLen, len(t))
		for _, it := range t {
			postings[it] = append(postings[it], sigtable.TID(tid))
		}
	}
	lenCount := make([]int, maxLen+1)
	for _, t := range all {
		lenCount[len(t)]++
	}

	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			match := make([]uint16, len(all))
			var touched []sigtable.TID
			for i := w; i < len(targets); i += workers {
				t := targets[i]
				touched = touched[:0]
				for _, it := range t {
					for _, tid := range postings[it] {
						if match[tid] == 0 {
							touched = append(touched, tid)
						}
						match[tid]++
					}
				}
				// hist[m][l]: transactions of length l sharing m items.
				hist := make([][]int, len(t)+1)
				for m := range hist {
					hist[m] = make([]int, maxLen+1)
				}
				copy(hist[0], lenCount)
				for _, tid := range touched {
					m, l := int(match[tid]), len(all[tid])
					hist[m][l]++
					hist[0][l]--
					if m >= 4 && inRange(t, all[tid]) {
						o.ranged[i] = append(o.ranged[i], tid)
					}
					match[tid] = 0
				}
				slices.Sort(o.ranged[i])
				for fn := range funcs {
					o.top[i][fn] = histTop(bind(funcs[fn].f, t), len(t), hist)
				}
			}
		}(w)
	}
	wg.Wait()
	return o
}

// histTop returns the topK best values of f over a (match, length)
// histogram of transactions, repeated by multiplicity.
func histTop(f sigtable.SimilarityFunc, tlen int, hist [][]int) [topK]float64 {
	var out [topK]float64
	for i := range out {
		out[i] = math.Inf(-1)
	}
	for m, row := range hist {
		for l, n := range row {
			v := f.Score(m, tlen+l-2*m)
			for ; n > 0 && v > out[topK-1]; n-- {
				i := topK - 1
				for ; i > 0 && out[i-1] < v; i-- {
					out[i] = out[i-1]
				}
				out[i] = v
			}
		}
	}
	return out
}

// best returns the k best values under funcs[fn] over the base data plus
// the extra transactions.
func (o *oracle) best(target, fn, k int, extra []sigtable.Transaction) []float64 {
	vals := append([]float64(nil), o.top[target][fn][:]...)
	f := bind(funcs[fn].f, o.targets[target])
	for _, x := range extra {
		vals = append(vals, score(f, o.targets[target], x))
	}
	slices.Sort(vals)
	slices.Reverse(vals)
	return vals[:k]
}

// view is what an answer may legitimately have seen: the base data plus
// some of the inserted transactions in known. When exact is set, the
// live set was exactly base ∪ known; otherwise any subset of known may
// have been live.
type view struct {
	known map[sigtable.TID]sigtable.Transaction
	exact bool
}

func (o *oracle) lookup(v view, id sigtable.TID) (sigtable.Transaction, bool) {
	if int(id) < o.base.Len() {
		return o.base.Get(id), true
	}
	t, ok := v.known[id]
	return t, ok
}

// upper returns the k best values over base ∪ known, memoized per
// (target, fn) for the inexact view, whose known set is fixed once the
// run has ended.
func (o *oracle) upper(target, fn, k int, v view) []float64 {
	if v.exact {
		return o.best(target, fn, k, values(v.known))
	}
	key := [2]int{target, fn}
	if _, ok := o.hi[key]; !ok {
		o.hi[key] = o.best(target, fn, topK, values(v.known))
	}
	return o.hi[key][:k]
}

func values(m map[sigtable.TID]sigtable.Transaction) []sigtable.Transaction {
	out := make([]sigtable.Transaction, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	return out
}

// checkNeighbors verifies a k-NN answer: k distinct neighbors in
// non-increasing order, each a transaction that may have been live and
// whose reported value (and items, when the server returned them) are
// its own; and, unless early is set, values between the base optimum and
// the optimum over everything that may have been live. It reports
// whether the best value reaches the base optimum (an exact answer).
func (o *oracle) checkNeighbors(target, fn, k int, got []nbr, v view, early bool) (bool, error) {
	if len(got) != k {
		return false, fmt.Errorf("%d neighbors, want %d", len(got), k)
	}
	t := o.targets[target]
	f := bind(funcs[fn].f, t)
	seen := make(map[sigtable.TID]bool, k)
	for i, n := range got {
		x, ok := o.lookup(v, n.TID)
		switch {
		case !ok:
			return false, fmt.Errorf("neighbor %d: tid %d was never live", i, n.TID)
		case seen[n.TID]:
			return false, fmt.Errorf("neighbor %d: tid %d repeated", i, n.TID)
		case n.Items != nil && !slices.Equal(n.Items, []sigtable.Item(x)):
			return false, fmt.Errorf("neighbor %d: tid %d items %v, want %v", i, n.TID, n.Items, x)
		case score(f, t, x) != n.Value:
			return false, fmt.Errorf("neighbor %d: tid %d value %v, want %v", i, n.TID, n.Value, score(f, t, x))
		case i > 0 && n.Value > got[i-1].Value:
			return false, fmt.Errorf("neighbor %d out of order", i)
		}
		seen[n.TID] = true
	}
	hi := o.upper(target, fn, k, v)
	lo := o.top[target][fn][:k]
	if v.exact {
		lo = hi
	}
	for i, n := range got {
		if n.Value > hi[i] || (!early && n.Value < lo[i]) {
			return false, fmt.Errorf("%s value %d = %v outside oracle band [%v, %v]", funcs[fn].name, i, n.Value, lo[i], hi[i])
		}
	}
	return got[0].Value >= lo[0], nil
}

// checkRange verifies a range answer: on the base data it must equal the
// oracle's TID set; beyond it, every TID must be a known insert meeting
// the constraints, and with an exact view every qualifying known insert
// must be present.
func (o *oracle) checkRange(target int, got []sigtable.TID, v view) error {
	if !slices.IsSorted(got) {
		return fmt.Errorf("range TIDs not sorted")
	}
	n := sigtable.TID(o.base.Len())
	split, _ := slices.BinarySearch(got, n)
	if !slices.Equal(got[:split], o.ranged[target]) {
		return fmt.Errorf("range over base data: %d TIDs, want %d", split, len(o.ranged[target]))
	}
	t := o.targets[target]
	extra := got[split:]
	for i, id := range extra {
		x, ok := v.known[id]
		if !ok || !inRange(t, x) || (i > 0 && extra[i-1] == id) {
			return fmt.Errorf("range returned tid %d, which does not qualify", id)
		}
	}
	if v.exact {
		want := 0
		for _, x := range v.known {
			if inRange(t, x) {
				want++
			}
		}
		if want != len(extra) {
			return fmt.Errorf("range over inserted data: %d TIDs, want %d", len(extra), want)
		}
	}
	return nil
}
