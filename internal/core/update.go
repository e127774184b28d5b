package core

import (
	"fmt"

	"sigtable/internal/txn"
)

// Dynamic maintenance. The signature table supports incremental
// inserts and deletes without rebuilding: an insert appends the
// transaction to the dataset and to its supercoordinate's entry; a
// delete tombstones the TID. In disk mode inserted transactions live in
// a per-entry in-memory overflow that scans after the entry's pages
// (snapshot inserts flush overflows to fresh pages at the flush
// threshold; Rebuild compacts everything).
//
// Two mutation protocols exist. The legacy in-place mutators below are
// not safe to run concurrently with queries or each other — callers
// serialize them behind a read-write lock, the seed Index's discipline.
// The snapshot mutators (snapshot.go) instead derive a new immutable
// table per mutation, which the public Index publishes atomically so
// queries never take a lock at all. One lineage must stick to one
// protocol.

// Insert adds a transaction to the index (and its dataset), returning
// the assigned TID.
func (t *Table) Insert(tr txn.Transaction) txn.TID {
	id := t.data.Append(tr)
	if t.deleted != nil {
		t.deleted = append(t.deleted, false)
	}
	coord := t.part.Coord(tr, t.r)
	slot, ok := t.byCoord[coord]
	if !ok {
		// Novel coordinate: append the next slot. Entries are kept in
		// slot order (not coordinate order), so this is O(1) where the
		// seed shifted the whole sorted slice.
		slot = int32(len(t.entries))
		t.entries = append(t.entries, &Entry{Coord: coord})
		t.byCoord[coord] = slot
		if t.dir != nil {
			t.dir.addSlot(coord)
		}
	}
	e := t.entries[slot]
	e.tids = append(e.tids, id) // overflow list in disk mode
	e.Count++
	t.slotOf = append(t.slotOf, slot)
	t.live++
	t.version++
	if t.store != nil {
		t.shared.overflowTxns.Add(1)
		// Overflow inserts scan after an entry's pages, so a cached page
		// decode cannot serve the new transaction by itself — but the
		// invalidation protocol is by construction, not by that layering
		// argument: any logical change to a list's contents bumps the
		// generation. (The snapshot protocol narrows this to the one
		// mutated list; the legacy path keeps the global bump.)
		t.store.InvalidateDecodes()
	}
	return id
}

// Delete tombstones a transaction by TID. It reports whether the TID
// was present and live. Deleted transactions stop appearing in query
// results but still occupy dataset and (in disk mode) page space until
// a Rebuild.
func (t *Table) Delete(id txn.TID) bool {
	if int(id) >= t.data.Len() {
		return false
	}
	if t.deleted == nil {
		t.deleted = make([]bool, t.data.Len())
	}
	if t.deleted[id] {
		return false
	}
	t.deleted[id] = true
	// The TID→slot memo replaces the seed's full coordinate
	// recomputation (hashing every item of the transaction) with one
	// slice index.
	t.entries[t.slotOf[id]].Count--
	t.live--
	t.version++
	if t.store != nil {
		// Tombstones are filtered above the pager, so cached raw decodes
		// never surface a deleted transaction — the bump keeps the
		// invalidation protocol unconditional anyway.
		t.store.InvalidateDecodes()
	}
	return true
}

// Live reports the number of indexed, non-deleted transactions.
func (t *Table) Live() int { return t.live }

// IsDeleted reports whether a TID has been tombstoned.
func (t *Table) IsDeleted(id txn.TID) bool {
	return t.deleted != nil && int(id) < len(t.deleted) && t.deleted[id]
}

// Rebuild reconstructs the table over the current live transactions,
// compacting tombstones and (in disk mode) flushing overflow inserts to
// pages. TIDs are reassigned densely in the returned table's dataset;
// the receiver remains valid but stale.
func (t *Table) Rebuild() (*Table, error) {
	compact := txn.NewDataset(t.data.UniverseSize())
	for i, tr := range t.data.All() {
		if t.deleted != nil && t.deleted[i] {
			continue
		}
		compact.Append(tr)
	}
	opt := BuildOptions{ActivationThreshold: t.r, PrefetchWorkers: t.prefetchWorkers, FlushThreshold: t.flushThreshold}
	gen := 0
	if t.store != nil {
		opt.PageSize = t.store.PageSize()
		opt.PageFormat = t.store.Format()
		if pool := t.store.Pool(); pool != nil {
			opt.BufferPoolPages = pool.Capacity()
		}
		if dc := t.store.DecodeCache(); dc != nil {
			opt.DecodeCacheBytes = dc.Capacity()
		}
		if t.pageFile != "" {
			// The stale table stays readable, so the rebuilt pages go to
			// a fresh generation file beside the original rather than
			// truncating the live one. Closing the old table's Store
			// releases its handle.
			gen = t.pageGen + 1
			opt.PageFile = fmt.Sprintf("%s.g%d", t.pageFile, gen)
		}
	}
	nt, err := Build(compact, t.part, opt)
	if err != nil {
		return nil, fmt.Errorf("core: rebuild: %w", err)
	}
	if t.pageFile != "" {
		nt.pageFile, nt.pageGen = t.pageFile, gen
	}
	// Adopt the lineage's shared state so the overflow counters stay
	// monotone across the swap (pools are safe to share; the stale
	// table remains queryable).
	nt.shared = t.shared
	nt.version = t.version + 1
	return nt, nil
}
