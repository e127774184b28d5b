package txn

import (
	"fmt"
	"slices"
)

// Dataset is an in-memory collection of transactions over a fixed item
// universe {0, ..., UniverseSize-1}. Transactions are addressed by TID,
// their position in the collection.
type Dataset struct {
	universe int
	txns     []Transaction
	items    int // running total of item occurrences
}

// NewDataset creates an empty dataset over a universe of the given size.
// It panics if universeSize is not positive.
func NewDataset(universeSize int) *Dataset {
	if universeSize <= 0 {
		panic(fmt.Sprintf("txn.NewDataset: universe size must be positive, got %d", universeSize))
	}
	return &Dataset{universe: universeSize}
}

// UniverseSize reports the number of distinct items the dataset may use.
func (d *Dataset) UniverseSize() int { return d.universe }

// Len reports the number of transactions.
func (d *Dataset) Len() int { return len(d.txns) }

// ItemOccurrences reports the total number of (transaction, item) pairs,
// i.e. the sum of all transaction lengths.
func (d *Dataset) ItemOccurrences() int { return d.items }

// AvgLen reports the mean transaction length, or 0 for an empty dataset.
func (d *Dataset) AvgLen() float64 {
	if len(d.txns) == 0 {
		return 0
	}
	return float64(d.items) / float64(len(d.txns))
}

// Append adds a transaction and returns its TID. It panics if the
// transaction references an item outside the universe.
func (d *Dataset) Append(t Transaction) TID {
	if n := len(t); n > 0 && int(t[n-1]) >= d.universe {
		panic(fmt.Sprintf("txn.Dataset.Append: item %d outside universe of size %d", t[n-1], d.universe))
	}
	d.txns = append(d.txns, t)
	d.items += len(t)
	return TID(len(d.txns) - 1)
}

// Grow makes room for n more transactions, so the next n Appends do
// not reallocate.
func (d *Dataset) Grow(n int) { d.txns = slices.Grow(d.txns, n) }

// AppendShared adds a transaction to a copy-on-write derivative of the
// dataset and returns (derivative, TID). The two datasets share the
// transaction storage for TIDs [0, d.Len()): the receiver keeps its
// length, so readers holding it never observe the new transaction, while
// the derivative sees it at the returned TID. Callers must serialize
// AppendShared chains (always deriving from the newest dataset) — the
// snapshot writer protocol in internal/core does — so the shared backing
// array is only ever extended at monotonically increasing indexes that
// no older reader addresses. It panics if the transaction references an
// item outside the universe.
func (d *Dataset) AppendShared(t Transaction) (*Dataset, TID) {
	if n := len(t); n > 0 && int(t[n-1]) >= d.universe {
		panic(fmt.Sprintf("txn.Dataset.AppendShared: item %d outside universe of size %d", t[n-1], d.universe))
	}
	nd := &Dataset{
		universe: d.universe,
		txns:     append(d.txns, t),
		items:    d.items + len(t),
	}
	return nd, TID(len(nd.txns) - 1)
}

// Get returns the transaction with the given TID. The returned slice is
// shared with the dataset and must not be modified.
func (d *Dataset) Get(id TID) Transaction { return d.txns[id] }

// All returns the underlying transaction slice, indexed by TID. The
// slice and its elements are shared with the dataset; treat them as
// read-only.
func (d *Dataset) All() []Transaction { return d.txns }

// Slice returns a new dataset sharing transactions [lo, hi) of d.
// It is used to study scaling with database size over a single
// generated corpus (prefixes of one corpus, as in the paper's Dx runs).
func (d *Dataset) Slice(lo, hi int) *Dataset {
	if lo < 0 || hi > len(d.txns) || lo > hi {
		panic(fmt.Sprintf("txn.Dataset.Slice: bounds [%d, %d) out of range for %d transactions", lo, hi, len(d.txns)))
	}
	s := &Dataset{universe: d.universe, txns: d.txns[lo:hi]}
	for _, t := range s.txns {
		s.items += len(t)
	}
	return s
}
