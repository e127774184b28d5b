package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"sigtable/internal/signature"
	"sigtable/internal/simfun"
)

// Integer-key entry ordering for single-target searches.
//
// By Lemma 2.1 an entry's optimistic bound is f(M_opt, D_opt) of two
// small integers, and its tie key, the coordinate similarity, is
// f(x, y) of two popcounts of at most K bits. A query over thousands
// of entries therefore sees only tens to hundreds of distinct bound
// values and at most (K+1)² distinct tie values. The key ladder ranks
// on those integers:
//
//   - Bounds. A pooled hash table numbers each slot's (M_opt, D_opt)
//     pair densely, and f runs once per distinct pair. The pairs are
//     sorted by value, pairs with equal floats (==, the equivalence
//     CompareRanked uses) share one bucket, and the slots are
//     counting-sorted into one exact bucket per distinct bound, in
//     slot order.
//   - Ties. When consumption first reaches a bucket, each entry's tie
//     code (popcount(t&c), popcount(t^c)) is looked up in a per-query
//     memo of at most (K+1)² values, and the bucket is counting-sorted
//     by tie rank, stably, so every run of equal (bound, tie) keys
//     stays in slot order.
//   - Coordinates. Slot order is coordinate order for the prefix of
//     slots that Build, Rebuild and ReadTable numbered (the directory
//     records its length). Inserts of new coordinates append slots,
//     which the stable sorts leave last in each equal-key run; only
//     that short tail is sorted by coordinate and merged in.
//
// ByCoordSimilarity takes the same path with one bucket per distinct
// tie value; the pair numbers then only supply each entry's bound for
// pruning. Either way the pop sequence is the CompareRanked order,
// element for element, and a query that prunes after a short prefix
// never computes the tail's tie keys. Every buffer is sized by the slot
// count or by K, never by the target's length.

// keyLadder is the single-target entrySource. Its buffers are pooled
// in the query scratch and reused across queries.
type keyLadder struct {
	entries []*Entry
	f       simfun.Func
	target  signature.Coord
	byBound bool
	ordered int32 // slots below it are numbered in coordinate order
	k1      int   // K+1: a tie code is x*k1 + y

	slots  []int32 // slot numbers grouped by bucket
	starts []int32 // bucket b is slots[starts[b]:starts[b+1]]
	next   int     // first bucket not yet in final order
	pos    int     // position of the next entry to pop

	// Per-pair state, indexed by pair number (see rank).
	pairs  pairTable // numbers the distinct pairs
	pairOf []int32   // per slot: its pair number
	nums   []int32   // the pair numbers, sorted by value
	val    []float64 // per pair: f(M_opt, D_opt)
	count  []int32   // per pair: slots holding it
	bucket []int32   // per pair: its bound bucket

	tieVal   []float64 // per tie code: f(x, y), valid once tieSeen is set
	tieSeen  []int32   // per tie code: 0 until computed, then the stamp of the last tieSort that met it
	tieRank  []int32   // per tie code: rank of its value in the current tieSort
	stamp    int32
	codes    []uint16 // per position of the segment being tie-sorted
	distinct []uint16 // tie codes of that segment
	runs     []int32  // run bounds of the last tieSort
	cursor   []int32
	tmp      []int32
}

// rank fills the ladder for one target from the bit-sliced kernel's
// accumulators (see rankBitsliced): slot s has
// M_opt = baseM + accM[s] and D_opt = baseD + r·pop(s) + accD[s].
func (l *keyLadder) rank(t *Table, f simfun.Func, target signature.Coord, by SortCriterion, accM, accD []int32, baseM, baseD int) {
	d := t.dir
	n := d.slots
	k1 := d.k + 1
	l.entries, l.f, l.target = t.entries[:n], f, target
	l.byBound, l.ordered, l.k1 = by == ByOptimisticBound, d.ordered, k1
	l.next, l.pos, l.stamp = 0, 0, 0
	resizeF64(&l.tieVal, k1*k1)
	clear(resizeI32(&l.tieSeen, k1*k1))
	resizeI32(&l.tieRank, k1*k1)

	// A slot's pair is (baseM + a, baseD - a + b): a = accM[s] sums the
	// M_opt corrections of the signatures with r_j >= r, and
	// b = r·pop(s) + accD[s] + a sums r - r_j over the others the
	// coordinate activates. Both are small and non-negative, so the key
	// a<<32 | b identifies the pair.
	r := t.r
	l.pairs.reset(n)
	count := resizeI32(&l.count, n)
	clear(count)
	pairOf := resizeI32(&l.pairOf, n)
	pop, accD := d.pop[:n], accD[:n]
	for s, am := range accM[:n] {
		a := int(am)
		b := r*int(pop[s]) + int(accD[s]) + a
		num := l.pairs.number(uint64(a)<<32 | uint64(b))
		count[num]++
		pairOf[s] = num
	}
	np := len(l.pairs.keys)
	val := resizeF64(&l.val, np)
	nums := resizeI32(&l.nums, np)
	for num, key := range l.pairs.keys {
		a, b := int(key>>32), int(uint32(key))
		val[num] = f.Score(baseM+a, baseD-a+b)
		nums[num] = int32(num)
	}

	slots := resizeI32(&l.slots, n)
	if !l.byBound {
		// One bucket per distinct tie value: tie-sort the whole slot
		// range, whose runs are then the buckets.
		for s := range slots {
			slots[s] = int32(s)
		}
		l.starts = append(l.starts[:0], l.tieSort(slots)...)
		return
	}

	// Buckets: the pair numbers by decreasing value, equal floats
	// merged.
	slices.SortFunc(nums, func(a, b int32) int { return cmpDesc(val[a], val[b]) })
	bucket := resizeI32(&l.bucket, np)
	starts := resizeI32(&l.starts, len(nums)+1)
	starts[0] = 0
	nb := int32(-1)
	for i, num := range nums {
		if i == 0 || val[num] != val[nums[i-1]] {
			nb++
			starts[nb+1] = starts[nb]
		}
		bucket[num] = nb
		starts[nb+1] += count[num]
	}
	l.starts = starts[:nb+2]

	cursor := resizeI32(&l.cursor, int(nb+1))
	copy(cursor, l.starts)
	for s, num := range pairOf {
		bk := bucket[num]
		slots[cursor[bk]] = int32(s)
		cursor[bk]++
	}
}

// cmpDesc orders floats by decreasing value, equal under ==.
func cmpDesc(a, b float64) int {
	switch {
	case a > b:
		return -1
	case a < b:
		return 1
	}
	return 0
}

// code is the tie code of a coordinate: its match and hamming counts
// against the target's coordinate, packed.
func (l *keyLadder) code(c signature.Coord) int {
	return bits.OnesCount64(l.target&c)*l.k1 + bits.OnesCount64(l.target^c)
}

// tieSort stably counting-sorts seg by decreasing tie value, filling
// the tie memo for every code it meets, and returns the bounds of its
// runs of equal tie values (run i is seg[runs[i]:runs[i+1]]).
func (l *keyLadder) tieSort(seg []int32) []int32 {
	l.stamp++
	codes := resizeU16(&l.codes, len(seg))
	distinct := l.distinct[:0]
	for i, s := range seg {
		c := l.code(l.entries[s].Coord)
		codes[i] = uint16(c)
		switch l.tieSeen[c] {
		case l.stamp:
			continue
		case 0:
			l.tieVal[c] = l.f.Score(c/l.k1, c%l.k1)
		}
		l.tieSeen[c] = l.stamp
		distinct = append(distinct, uint16(c))
	}
	l.distinct = distinct
	runs := resizeI32(&l.runs, 2)
	if len(distinct) <= 1 {
		runs[0], runs[1] = 0, int32(len(seg))
		return runs
	}

	slices.SortFunc(distinct, func(a, b uint16) int { return cmpDesc(l.tieVal[a], l.tieVal[b]) })
	nr := int32(0)
	for i, c := range distinct {
		if i > 0 && l.tieVal[c] != l.tieVal[distinct[i-1]] {
			nr++
		}
		l.tieRank[c] = nr
	}
	nr++
	runs = resizeI32(&l.runs, int(nr)+1)
	clear(runs)
	for _, c := range codes {
		runs[l.tieRank[c]+1]++
	}
	for i := int32(1); i <= nr; i++ {
		runs[i] += runs[i-1]
	}
	if nr == 1 {
		return runs
	}
	cursor := resizeI32(&l.cursor, int(nr))
	copy(cursor, runs)
	tmp := resizeI32(&l.tmp, len(seg))
	for i, s := range seg {
		rk := l.tieRank[codes[i]]
		tmp[cursor[rk]] = s
		cursor[rk]++
	}
	copy(seg, tmp)
	return runs
}

// orderTail puts a run of equal (sort, tie) keys, held in slot order,
// into coordinate order: the slots below l.ordered already are, so
// only the appended tail is sorted and merged in from the back.
func (l *keyLadder) orderTail(run []int32) {
	h := len(run)
	for h > 0 && run[h-1] >= l.ordered {
		h--
	}
	tail := run[h:]
	if len(tail) == 0 {
		return
	}
	coord := func(s int32) signature.Coord { return l.entries[s].Coord }
	slices.SortFunc(tail, func(a, b int32) int { return cmp.Compare(coord(a), coord(b)) })
	if h == 0 {
		return
	}
	tmp := append(l.tmp[:0], tail...)
	l.tmp = tmp
	i, k := h-1, len(run)-1
	for j := len(tmp) - 1; j >= 0; k-- {
		if i >= 0 && coord(run[i]) > coord(tmp[j]) {
			run[k] = run[i]
			i--
		} else {
			run[k] = tmp[j]
			j--
		}
	}
}

// advance puts the bucket holding the next entry into final order if
// consumption has just reached it.
func (l *keyLadder) advance() {
	if l.pos < int(l.starts[l.next]) {
		return
	}
	b := l.next
	l.next++
	seg := l.slots[l.starts[b]:l.starts[b+1]]
	if !l.byBound {
		l.orderTail(seg)
		return
	}
	runs := l.tieSort(seg)
	for i := 0; i+1 < len(runs); i++ {
		l.orderTail(seg[runs[i]:runs[i+1]])
	}
}

// at is the entry at position i with the fields Prefix and All
// promise: the entry, its slot and its bound.
func (l *keyLadder) at(i int) rankedEntry {
	s := l.slots[i]
	return rankedEntry{e: l.entries[s], idx: int(s), opt: l.val[l.pairOf[s]]}
}

// ranked is the entry at an ordered position i with every key filled.
func (l *keyLadder) ranked(i int) rankedEntry {
	re := l.at(i)
	re.tie = l.tieVal[l.code(re.e.Coord)]
	re.sort = re.opt
	if !l.byBound {
		re.sort = re.tie
	}
	return re
}

func (l *keyLadder) Len() int { return len(l.slots) - l.pos }

func (l *keyLadder) Pop() rankedEntry {
	l.advance()
	re := l.ranked(l.pos)
	l.pos++
	return re
}

func (l *keyLadder) Peek() rankedEntry {
	l.advance()
	return l.ranked(l.pos)
}

// Prefix walks upcoming entries in raw ladder order: exact within
// ordered buckets, bucket-grouped beyond. It never orders a bucket:
// prefetch lookahead must not pay for ordering the tail.
func (l *keyLadder) Prefix(n int, fn func(rankedEntry)) {
	end := min(l.pos+n, len(l.slots))
	for i := l.pos; i < end; i++ {
		fn(l.at(i))
	}
}

func (l *keyLadder) All(fn func(rankedEntry)) {
	for i := l.pos; i < len(l.slots); i++ {
		fn(l.at(i))
	}
}

func (l *keyLadder) Drop() int {
	n := l.Len()
	l.pos = len(l.slots)
	return n
}

func (l *keyLadder) MaxRemainingOpt() float64 {
	if l.Len() == 0 {
		return math.Inf(-1)
	}
	if l.byBound {
		// Buckets descend and hold one bound value each, so the next
		// entry's bucket holds the maximum.
		return l.at(l.pos).opt
	}
	max := math.Inf(-1)
	for i := l.pos; i < len(l.slots); i++ {
		if v := l.val[l.pairOf[l.slots[i]]]; v > max {
			max = v
		}
	}
	return max
}

// pairTable numbers pair keys densely in first-seen order. It is
// open-addressing with linear probing under a multiplicative hash, and
// a cell is live only while it carries the table's current generation,
// so starting a query or a rehash costs one increment instead of a
// clear. It doubles past half full, up to a capacity of at most twice
// the slot count.
type pairTable struct {
	cells []pairCell
	keys  []uint64 // per pair number
	gen   uint32
	shift uint
	mask  uint64
	limit int // capacity limit for this query
}

type pairCell struct {
	key  uint64
	gen  uint32
	pair int32
}

// pairTableMinCells is the starting capacity: a query typically meets
// under a hundred distinct pairs.
const pairTableMinCells = 256

// reset empties the table for a query over n slots.
func (pt *pairTable) reset(n int) {
	pt.keys = pt.keys[:0]
	pt.limit = 1 << bits.Len(uint(n)) // the largest power of two <= 2n
	pt.rehash(min(max(len(pt.cells), pairTableMinCells), pt.limit))
}

// rehash resizes the live region to size cells (a power of two) and
// re-inserts every key.
func (pt *pairTable) rehash(size int) {
	if len(pt.cells) < size {
		pt.cells = make([]pairCell, size)
	}
	pt.gen++
	if pt.gen == 0 {
		clear(pt.cells)
		pt.gen = 1
	}
	pt.mask = uint64(size - 1)
	pt.shift = uint(64 - bits.Len(uint(size-1)))
	for p, key := range pt.keys {
		*pt.find(key) = pairCell{key: key, gen: pt.gen, pair: int32(p)}
	}
}

// find returns the key's cell, or the empty cell where it belongs.
func (pt *pairTable) find(key uint64) *pairCell {
	h := (key * 0x9E3779B97F4A7C15) >> pt.shift & pt.mask
	for {
		c := &pt.cells[h]
		if c.gen != pt.gen || c.key == key {
			return c
		}
		h = (h + 1) & pt.mask
	}
}

// number returns the key's pair number, numbering a new key next.
func (pt *pairTable) number(key uint64) int32 {
	c := pt.find(key)
	if c.gen == pt.gen {
		return c.pair
	}
	p := int32(len(pt.keys))
	pt.keys = append(pt.keys, key)
	*c = pairCell{key: key, gen: pt.gen, pair: p}
	if size := int(pt.mask) + 1; 2*len(pt.keys) > size && size < pt.limit {
		pt.rehash(2 * size)
	}
	return p
}
