package topk

import (
	"math/rand"
	"sort"
	"testing"

	"sigtable/internal/txn"
)

func TestBasics(t *testing.T) {
	h := New(2)
	if h.Full() || h.Len() != 0 {
		t.Fatal("fresh heap not empty")
	}
	if _, ok := h.Threshold(); ok {
		t.Fatal("threshold before full")
	}
	h.Offer(1, 0.5)
	h.Offer(2, 0.9)
	if !h.Full() {
		t.Fatal("heap should be full")
	}
	if th, ok := h.Threshold(); !ok || th != 0.5 {
		t.Fatalf("threshold = %v, %v", th, ok)
	}
	if h.Offer(3, 0.4) {
		t.Fatal("worse candidate retained")
	}
	if !h.Offer(4, 0.7) {
		t.Fatal("better candidate rejected")
	}
	res := h.Results()
	if res[0].TID != 2 || res[1].TID != 4 {
		t.Fatalf("results = %v", res)
	}
}

func TestKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 accepted")
		}
	}()
	New(0)
}

func TestResultsTieOrdering(t *testing.T) {
	h := New(3)
	h.Offer(9, 1.0)
	h.Offer(3, 1.0)
	h.Offer(7, 1.0)
	res := h.Results()
	if res[0].TID != 3 || res[1].TID != 7 || res[2].TID != 9 {
		t.Fatalf("tie ordering = %v", res)
	}
}

func TestHeapInterfaceComplete(t *testing.T) {
	// candHeap implements container/heap fully; exercise Push/Pop
	// directly since Offer only uses Push and Fix.
	h := &candHeap{}
	h.Push(Candidate{TID: 1, Value: 2})
	h.Push(Candidate{TID: 2, Value: 1})
	if got := h.Pop().(Candidate); got.TID != 2 {
		t.Fatalf("Pop = %+v", got)
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d", h.Len())
	}
}

// TestAgainstSortReference drives random offers and checks against a
// full sort.
func TestAgainstSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(10)
		n := rng.Intn(200)
		h := New(k)
		all := make([]Candidate, 0, n)
		for i := 0; i < n; i++ {
			c := Candidate{TID: txn.TID(i), Value: float64(rng.Intn(50))}
			all = append(all, c)
			h.Offer(c.TID, c.Value)
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Value != all[j].Value {
				return all[i].Value > all[j].Value
			}
			return all[i].TID < all[j].TID
		})
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := h.Results()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			// Values must agree exactly; TIDs may differ among equal
			// values at the k boundary (the heap keeps the first
			// arrivals), so compare values only.
			if got[i].Value != want[i].Value {
				t.Fatalf("trial %d: results %v, want %v", trial, got, want)
			}
		}
	}
}

// TestHugeK: a k far beyond memory (it may come from a request) must
// not be preallocated; the heap holds only what it is offered.
func TestHugeK(t *testing.T) {
	h := New(1 << 40)
	for i := 0; i < 100; i++ {
		h.Offer(txn.TID(i), float64(i%7))
	}
	if h.Len() != 100 || h.Full() || h.K() != 1<<40 {
		t.Fatalf("Len %d Full %v K %d", h.Len(), h.Full(), h.K())
	}
	if res := h.Results(); len(res) != 100 || res[0].Value != 6 || res[99].Value != 0 {
		t.Fatalf("results = %v", res)
	}
}
