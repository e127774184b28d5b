// Package topk maintains the k best candidates seen so far, ordered by
// similarity value — the bookkeeping the k-nearest-neighbor extension
// of the branch-and-bound algorithm needs (paper §4.3).
package topk

import (
	"container/heap"
	"sort"

	"sigtable/internal/txn"
)

// Candidate pairs a transaction id with its similarity value.
type Candidate struct {
	TID   txn.TID
	Value float64
}

// Heap keeps the k candidates with the highest values. The zero value
// is unusable; create one with New. Not safe for concurrent use.
type Heap struct {
	k     int
	items candHeap
}

// maxPrealloc caps the slots New reserves up front. k may come from a
// request and far exceed the candidates a search ever offers, so the
// heap grows with its offers beyond this.
const maxPrealloc = 64

// New creates a Heap retaining the best k candidates. k must be
// positive.
func New(k int) *Heap {
	if k <= 0 {
		panic("topk.New: k must be positive")
	}
	return &Heap{k: k, items: make(candHeap, 0, min(k, maxPrealloc))}
}

// K reports the configured capacity.
func (h *Heap) K() int { return h.k }

// Len reports how many candidates are currently held.
func (h *Heap) Len() int { return len(h.items) }

// Full reports whether k candidates are held.
func (h *Heap) Full() bool { return len(h.items) == h.k }

// Threshold returns the value of the k-th best candidate — the paper's
// pessimistic bound once the heap is full. Before the heap fills, it
// returns negative infinity semantics via (0, false).
func (h *Heap) Threshold() (float64, bool) {
	if !h.Full() {
		return 0, false
	}
	return h.items[0].Value, true
}

// Offer considers a candidate, keeping it if it beats the current k-th
// best (or the heap is not yet full). It reports whether the candidate
// was retained.
func (h *Heap) Offer(id txn.TID, value float64) bool {
	if len(h.items) < h.k {
		heap.Push(&h.items, Candidate{TID: id, Value: value})
		return true
	}
	if value <= h.items[0].Value {
		return false
	}
	h.items[0] = Candidate{TID: id, Value: value}
	heap.Fix(&h.items, 0)
	return true
}

// Results returns the retained candidates sorted by decreasing value
// (ties broken by TID for determinism). The heap remains usable.
func (h *Heap) Results() []Candidate {
	out := make([]Candidate, len(h.items))
	copy(out, h.items)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].TID < out[j].TID
	})
	return out
}

// candHeap is a min-heap on Value so the root is the k-th best.
type candHeap []Candidate

func (h candHeap) Len() int            { return len(h) }
func (h candHeap) Less(i, j int) bool  { return h[i].Value < h[j].Value }
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(Candidate)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
