// Package shard implements the sharded signature table engine: a set
// of sub-indexes (one core.Table each, with its own pager store and
// decode cache) behind a single query surface. A shard owns whole
// supercoordinates, so a query is core's own branch-and-bound loop run
// over the merge of the shards' ranked entries, and its result is
// byte-identical to a single-table index over the same data. Every
// shard's (table, globals) state is published together as one
// immutable vector, so a query sees one consistent set of shards and
// takes no lock.
//
// The identity guarantee rests on three invariants:
//
//  1. Every shard is built over the SAME signature partition and
//     activation threshold, so a coordinate's ranking keys are
//     bit-identical no matter which shard computes them.
//  2. One shard owns each coordinate: no two shards hold an entry for
//     the same supercoordinate. The shards' entries are then the single
//     table's entries, each whole, and the single table's visiting
//     order is the merge of the shards' ladders (core.QueryParts).
//  3. Each shard's local→global TID mapping is strictly increasing
//     (builds append a shard's transactions in global TID order;
//     inserts append the next-highest global TID), so an entry's scan
//     in its owning shard visits its transactions in the single
//     table's order.
package shard

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sigtable/internal/core"
	"sigtable/internal/pager"
	"sigtable/internal/signature"
	"sigtable/internal/txn"
)

// Options configures a sharded index build. The signature partition is
// supplied separately (it is mined from the full dataset, not per
// shard — invariant 1 above).
type Options struct {
	// Shards is the number of sub-indexes S (>= 1).
	Shards int
	// ActivationThreshold is the paper's r, already resolved (0 selects
	// the core default of 1; AutoActivation must be resolved by the
	// caller against the full dataset).
	ActivationThreshold int
	// PageSize, PageFile, BufferPoolPages and DecodeCacheBytes mirror
	// core.BuildOptions. Each shard gets its own store; a non-empty
	// PageFile becomes per-shard files PageFile+".s<i>", and the pool
	// and cache budgets are divided across shards.
	PageSize         int
	PageFile         string
	BufferPoolPages  int
	DecodeCacheBytes int64
	// PageFormat selects the on-page encoding for every shard store
	// (zero = the core default, the block-compressed v2 layout).
	PageFormat pager.Format
	// PrefetchWorkers mirrors core.BuildOptions.PrefetchWorkers for
	// every shard store: 0 auto-attaches prefetch workers on
	// file-backed pooled shards, positive forces that many per shard,
	// negative disables. Workers are per shard — they serve only that
	// shard's page file — so the count is passed through undivided.
	PrefetchWorkers int
	// FlushThreshold mirrors core.BuildOptions.FlushThreshold for every
	// shard: the per-entry overflow size at which a snapshot insert
	// flushes the entry's disk-mode overflow to fresh pages (0 = the
	// core default, negative disables).
	FlushThreshold int
}

// states is one published vector of every shard's state, indexed by
// shard number: an immutable core table plus the matching local→global
// TID mapping. Readers load the vector once and run against it
// lock-free; a mutation derives the next vector from the current one
// and stores it whole, under the exclusive routing lock (the snapshot
// protocol of core/snapshot.go, with each globals slice extended by the
// same monotone shared-backing append as the table's own spines).
type states []core.Part

// shard is one sub-index's writer-side state. Queries never touch it
// beyond the scan counter.
type shard struct {
	wmu sync.Mutex // held while a mutation derives and publishes this shard's state

	gen     int           // rebalance generation, names fresh page files (under wmu)
	retired []*core.Table // swapped-out tables, kept open for in-flight readers (under wmu)

	// Telemetry.
	scans    atomic.Int64 // queries that read this shard
	lockWait atomic.Int64 // nanoseconds writers spent acquiring wmu
}

// location routes a global TID to its shard-local slot. A negative
// shard marks a TID whose transaction was compacted away.
type location struct {
	shard int32
	local txn.TID
}

// Index is the sharded engine. Safe for concurrent use: queries load
// the published shard states without locking; mutations take the
// routing lock plus the writer mutexes of the shards they change and
// publish a derived vector.
type Index struct {
	part     *signature.Partition
	r        int
	universe int
	opt      Options
	shards   []*shard
	states   atomic.Pointer[states] // every shard's published state

	poolPages   int   // per-shard buffer pool budget
	decodeBytes int64 // per-shard decode cache budget

	route struct {
		mu  sync.RWMutex // held exclusively by every mutation
		loc []location   // global TID -> location
	}
}

// New builds a sharded index over the dataset, keeping its TIDs as the
// global ones. Whole supercoordinates are assigned to shards (see
// balance) and each shard is indexed over the shared partition. The
// dataset is copied into per-shard datasets; the argument is not
// retained.
func New(data *txn.Dataset, part *signature.Partition, opt Options) (*Index, error) {
	if opt.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d must be >= 1", opt.Shards)
	}
	if part.UniverseSize() != data.UniverseSize() {
		return nil, fmt.Errorf("shard: partition universe %d != dataset universe %d",
			part.UniverseSize(), data.UniverseSize())
	}
	r := opt.ActivationThreshold
	if r == 0 {
		r = 1
	}
	if r < 1 {
		return nil, fmt.Errorf("shard: activation threshold %d must be >= 1", r)
	}

	x := &Index{
		part:     part,
		r:        r,
		universe: data.UniverseSize(),
		opt:      opt,
		shards:   make([]*shard, opt.Shards),
	}
	for i := range x.shards {
		x.shards[i] = &shard{}
	}
	x.poolPages, x.decodeBytes = splitBudget(opt.BufferPoolPages, opt.DecodeCacheBytes, opt.Shards)

	parts, err := x.split(data.All(), nil)
	if err != nil {
		return nil, err
	}
	x.route.loc = make([]location, data.Len())
	x.routeAll(parts)
	x.publish(parts)
	return x, nil
}

// split builds one table per shard over the transactions, assigning
// whole supercoordinates to shards (balance). ids lists the
// transactions' global TIDs in ascending order (nil: their positions),
// and each shard's globals keep that order. Page files are named by the
// shards' current generations. On error the tables already built are
// closed.
func (x *Index) split(trs []txn.Transaction, ids []txn.TID) (states, error) {
	coords := make([]signature.Coord, len(trs))
	for j, tr := range trs {
		coords[j] = x.part.Coord(tr, x.r)
	}
	owner, load := balance(coords, x.part.K(), len(x.shards))
	data := make([]*txn.Dataset, len(x.shards))
	parts := make(states, len(x.shards))
	for i := range parts {
		data[i] = txn.NewDataset(x.universe)
		data[i].Grow(load[i])
		parts[i].Globals = make([]txn.TID, 0, load[i])
	}
	for j, tr := range trs {
		i := owner[j]
		data[i].Append(tr)
		g := txn.TID(j)
		if ids != nil {
			g = ids[j]
		}
		parts[i].Globals = append(parts[i].Globals, g)
	}
	for i := range parts {
		t, err := core.Build(data[i], x.part, x.buildOptions(i, x.shards[i].gen))
		if err != nil {
			for _, p := range parts[:i] {
				p.Table.Close()
			}
			return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
		}
		parts[i].Table = t
	}
	return parts, nil
}

// balance assigns whole supercoordinates to shards, largest entry
// first, each to the shard holding the fewest transactions so far.
// Ties go to the lower coordinate, then the lower shard number. Given
// each transaction's k-bit coordinate, it returns each transaction's
// shard and each shard's transaction count. The greedy bound: shard
// sizes differ by at most the largest entry.
func balance(coords []signature.Coord, k, shards int) (owner []int32, load []int) {
	// An LSD radix sort of the transactions by coordinate, 8-bit
	// digits, leaves each coordinate's transactions in one run of
	// order, the runs in coordinate order.
	order, tmp := make([]int32, len(coords)), make([]int32, len(coords))
	for j := range order {
		order[j] = int32(j)
	}
	for shift := 0; shift < k; shift += 8 {
		var start [256]int32
		for _, c := range coords {
			start[byte(c>>shift)]++
		}
		sum := int32(0)
		for d, n := range start {
			start[d] = sum
			sum += n
		}
		for _, j := range order {
			d := byte(coords[j] >> shift)
			tmp[start[d]] = j
			start[d]++
		}
		order, tmp = tmp, order
	}
	type run struct{ lo, hi int32 }
	var runs []run
	largest := int32(0)
	for lo := int32(0); int(lo) < len(order); {
		hi := lo + 1
		for int(hi) < len(order) && coords[order[hi]] == coords[order[lo]] {
			hi++
		}
		runs = append(runs, run{lo, hi})
		largest = max(largest, hi-lo)
		lo = hi
	}
	// Larger entries first, equal sizes in coordinate order: a stable
	// counting sort of the runs by descending size.
	start := make([]int32, largest+1)
	for _, r := range runs {
		start[largest-(r.hi-r.lo)]++
	}
	sum := int32(0)
	for b, n := range start {
		start[b] = sum
		sum += n
	}
	bySize := make([]run, len(runs))
	for _, r := range runs {
		b := largest - (r.hi - r.lo)
		bySize[start[b]] = r
		start[b]++
	}
	owner, load = tmp, make([]int, shards) // tmp is free after the sort
	for _, r := range bySize {
		i := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[i] {
				i = s
			}
		}
		load[i] += int(r.hi - r.lo)
		for _, j := range order[r.lo:r.hi] {
			owner[j] = int32(i)
		}
	}
	return owner, load
}

// splitBudget divides the pool and cache budgets evenly across shards,
// keeping at least one page / the full residue when the division
// underflows.
func splitBudget(pages int, bytes int64, s int) (int, int64) {
	pp, db := pages/s, bytes/int64(s)
	if pages > 0 && pp < 1 {
		pp = 1
	}
	if bytes > 0 && db < 1 {
		db = 1
	}
	return pp, db
}

// buildOptions is the per-shard core build configuration; gen > 0
// names a fresh rebalance-generation page file.
func (x *Index) buildOptions(i, gen int) core.BuildOptions {
	o := core.BuildOptions{
		ActivationThreshold: x.r,
		PageSize:            x.opt.PageSize,
		PageFormat:          x.opt.PageFormat,
		BufferPoolPages:     x.poolPages,
		DecodeCacheBytes:    x.decodeBytes,
		PrefetchWorkers:     x.opt.PrefetchWorkers,
		FlushThreshold:      x.opt.FlushThreshold,
	}
	if x.opt.PageFile != "" {
		o.PageFile = fmt.Sprintf("%s.s%d", x.opt.PageFile, i)
		if gen > 0 {
			o.PageFile = fmt.Sprintf("%s.r%d", o.PageFile, gen)
		}
	}
	return o
}

// load returns the published shard states.
func (x *Index) load() states { return *x.states.Load() }

// publish stores a new vector of shard states. The caller holds the
// routing lock exclusively and has routed the vector's TIDs.
func (x *Index) publish(next states) { x.states.Store(&next) }

// routeShard points the routing table at every global TID shard i's
// state maps.
func (x *Index) routeShard(i int, p core.Part) {
	for local, g := range p.Globals {
		x.route.loc[g] = location{shard: int32(i), local: txn.TID(local)}
	}
}

// routeAll routes every shard of a freshly built vector.
func (x *Index) routeAll(s states) {
	for i, p := range s {
		x.routeShard(i, p)
	}
}

// with returns a copy of the states with shard i's replaced.
func (s states) with(i int, p core.Part) states {
	next := slices.Clone(s)
	next[i] = p
	return next
}

// lockShard takes shard i's writer mutex, charging the wait to its
// lock-wait counter.
func (x *Index) lockShard(i int) {
	s := x.shards[i]
	t0 := time.Now()
	s.wmu.Lock()
	s.lockWait.Add(time.Since(t0).Nanoseconds())
}

// Shards reports the shard count.
func (x *Index) Shards() int { return len(x.shards) }

// Partition returns the shared signature partition.
func (x *Index) Partition() *signature.Partition { return x.part }

// ActivationThreshold returns the paper's r shared by every shard.
func (x *Index) ActivationThreshold() int { return x.r }

// K reports the signature cardinality.
func (x *Index) K() int { return x.part.K() }

// Len reports the size of the global TID space (including tombstoned
// and compacted-away TIDs).
func (x *Index) Len() int {
	x.route.mu.RLock()
	defer x.route.mu.RUnlock()
	return len(x.route.loc)
}

// Live reports the number of live transactions across all shards.
func (x *Index) Live() int {
	total := 0
	for _, p := range x.load() {
		total += p.Table.Live()
	}
	return total
}

// NumEntries reports the number of occupied supercoordinates across
// all shards — the same count a single table over the union would
// have, since no coordinate has entries in two shards.
func (x *Index) NumEntries() int {
	n := 0
	for _, p := range x.load() {
		n += p.Table.NumEntries()
	}
	return n
}

// SnapshotVersion sums the per-shard snapshot versions — a counter
// that advances on every published mutation or compaction anywhere in
// the index, the sharded analogue of a single table's Version.
func (x *Index) SnapshotVersion() uint64 {
	var v uint64
	for _, p := range x.load() {
		v += p.Table.Version()
	}
	return v
}

// OverflowStats aggregates the per-shard overflow-flush accounting.
func (x *Index) OverflowStats() core.OverflowStats {
	var agg core.OverflowStats
	for _, p := range x.load() {
		st := p.Table.OverflowStats()
		agg.Transactions += st.Transactions
		agg.Pending += st.Pending
		agg.Flushes += st.Flushes
		agg.FlushSeconds += st.FlushSeconds
	}
	return agg
}

// Items returns the transaction stored under the global TID, or nil if
// the TID is out of range or was compacted away. The routing lock
// keeps the location and the published states mutually consistent.
func (x *Index) Items(g txn.TID) txn.Transaction {
	x.route.mu.RLock()
	defer x.route.mu.RUnlock()
	if int(g) >= len(x.route.loc) {
		return nil
	}
	l := x.route.loc[g]
	if l.shard < 0 {
		return nil
	}
	return x.load()[l.shard].Table.Dataset().Get(l.local)
}

// target picks the shard for a new transaction: the shard whose state
// already has an entry for its coordinate, else the shard with the
// fewest live transactions (ties to the lower shard number).
func (x *Index) target(s states, tr txn.Transaction) int {
	c := x.part.Coord(tr, x.r)
	fewest := 0
	for i, p := range s {
		if p.Table.HasEntry(c) {
			return i
		}
		if p.Table.Live() < s[fewest].Table.Live() {
			fewest = i
		}
	}
	return fewest
}

// Insert adds a transaction, returning its global TID. The new TID is
// the highest ever assigned and it joins the shard that owns its
// coordinate (see target), so every shard's local→global mapping stays
// strictly increasing (invariant 3) and no coordinate gains a second
// owner (invariant 2). Only the routing lock and the owning shard's
// writer mutex are held, and queries take neither: the insert derives
// the shard's next state and publishes a new vector, disturbing no
// reader.
func (x *Index) Insert(tr txn.Transaction) txn.TID {
	return x.InsertBatch([]txn.Transaction{tr})[0]
}

// InsertBatch adds several transactions under one routing-lock
// acquisition and publishes them in one vector, so a query sees all of
// them or none. TIDs are returned in argument order. Each transaction
// is routed against the states as the batch has left them, so two new
// transactions with the same new coordinate join the same shard.
func (x *Index) InsertBatch(trs []txn.Transaction) []txn.TID {
	x.route.mu.Lock()
	defer x.route.mu.Unlock()
	locked := make([]bool, len(x.shards))
	defer func() {
		for i, l := range locked {
			if l {
				x.shards[i].wmu.Unlock()
			}
		}
	}()
	next := slices.Clone(x.load())
	ids := make([]txn.TID, len(trs))
	for j, tr := range trs {
		i := x.target(next, tr)
		if !locked[i] {
			x.lockShard(i)
			locked[i] = true
		}
		g := txn.TID(len(x.route.loc))
		// Like the table's own spines, globals grows only at an index no
		// reader of an older vector addresses, so the backing array may
		// be shared.
		t, local := next[i].Table.InsertSnapshot(tr)
		next[i] = core.Part{Table: t, Globals: append(next[i].Globals, g)}
		x.route.loc = append(x.route.loc, location{shard: int32(i), local: local})
		ids[j] = g
	}
	x.publish(next)
	return ids
}

// Delete tombstones the transaction at the global TID, reporting
// whether it was present and live. Only the owning shard's writer
// mutex is taken.
func (x *Index) Delete(g txn.TID) bool {
	x.route.mu.Lock()
	defer x.route.mu.Unlock()
	if int(g) >= len(x.route.loc) {
		return false
	}
	l := x.route.loc[g]
	if l.shard < 0 {
		return false
	}
	i := int(l.shard)
	x.lockShard(i)
	defer x.shards[i].wmu.Unlock()
	cur := x.load()
	t, ok := cur[i].Table.DeleteSnapshot(l.local)
	if ok {
		x.publish(cur.with(i, core.Part{Table: t, Globals: cur[i].Globals}))
	}
	return ok
}

// CompactShard rebuilds one shard in place over its live transactions,
// compacting tombstones and flushing insert overflows to pages. Unlike
// a single index's Compact, global TIDs are PRESERVED: the shard layer
// remaps its local TIDs and the rest of the index — and every query
// result — is unaffected. Only the routing lock and this shard's
// writer mutex are held; queries everywhere keep running, including
// readers mid-scan on the old table, which is retired (kept open)
// rather than closed until Close.
func (x *Index) CompactShard(i int) error {
	if i < 0 || i >= len(x.shards) {
		return fmt.Errorf("shard: shard %d out of range [0, %d)", i, len(x.shards))
	}
	x.route.mu.Lock()
	defer x.route.mu.Unlock()
	x.lockShard(i)
	defer x.shards[i].wmu.Unlock()

	cur := x.load()
	old := cur[i]
	t, err := old.Table.Rebuild()
	if err != nil {
		return fmt.Errorf("shard: compacting shard %d: %w", i, err)
	}
	globals := make([]txn.TID, 0, t.Len())
	for local, g := range old.Globals {
		if old.Table.IsDeleted(txn.TID(local)) {
			x.route.loc[g] = location{shard: -1}
			continue
		}
		globals = append(globals, g)
	}
	p := core.Part{Table: t, Globals: globals}
	x.routeShard(i, p)
	x.retire(x.shards[i], old.Table)
	x.publish(cur.with(i, p))
	return nil
}

// retire takes a replaced table out of service without closing it:
// prefetch workers stop (racing queries simply issue their own reads)
// but the page file stays open for readers still scanning the old
// table. Close releases the retired tables. Caller holds s.wmu.
func (x *Index) retire(s *shard, old *core.Table) {
	if store := old.Store(); store != nil {
		store.StopPrefetcher()
	}
	s.retired = append(s.retired, old)
}

// Rebalance reassigns whole supercoordinates over all live
// transactions the way New does (see balance) and rebuilds every shard
// — the heavyweight fix for shards drifting apart after skewed inserts
// and deletes. Global TIDs are preserved. It holds the routing lock
// plus every shard's writer mutex for the duration — other writers
// queue, but queries keep running on the old states throughout and
// then see the new vector whole; all new tables are built before it is
// published, so a build error leaves the index untouched.
func (x *Index) Rebalance() error {
	x.route.mu.Lock()
	defer x.route.mu.Unlock()
	for i := range x.shards {
		x.lockShard(i)
	}
	defer func() {
		for i := len(x.shards) - 1; i >= 0; i-- {
			x.shards[i].wmu.Unlock()
		}
	}()

	type liveTxn struct {
		g  txn.TID
		tr txn.Transaction
	}
	var all []liveTxn
	cur := x.load()
	for _, p := range cur {
		t := p.Table
		for local := 0; local < t.Len(); local++ {
			if !t.IsDeleted(txn.TID(local)) {
				all = append(all, liveTxn{g: p.Globals[local], tr: t.Dataset().Get(txn.TID(local))})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].g < all[j].g })
	trs := make([]txn.Transaction, len(all))
	ids := make([]txn.TID, len(all))
	for j, lt := range all {
		trs[j], ids[j] = lt.tr, lt.g
	}

	for _, s := range x.shards {
		s.gen++
	}
	next, err := x.split(trs, ids)
	if err != nil {
		return fmt.Errorf("shard: rebalancing: %w", err)
	}
	for g := range x.route.loc {
		x.route.loc[g] = location{shard: -1}
	}
	x.routeAll(next)
	for i, s := range x.shards {
		x.retire(s, cur[i].Table)
	}
	x.publish(next)
	return nil
}

// Close stops every shard store's prefetch workers and releases the
// backing page files, if any — current tables and tables retired by
// CompactShard/Rebalance alike. The index must not be queried after
// Close; the first error is returned but every shard is closed.
func (x *Index) Close() error {
	x.route.mu.Lock()
	defer x.route.mu.Unlock()
	var first error
	cur := x.load()
	for i, s := range x.shards {
		s.wmu.Lock()
		if err := cur[i].Table.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard: closing shard %d: %w", i, err)
		}
		for _, t := range s.retired {
			if err := t.Close(); err != nil && first == nil {
				first = fmt.Errorf("shard: closing shard %d retired table: %w", i, err)
			}
		}
		s.retired = nil
		s.wmu.Unlock()
	}
	return first
}

// Stats is one shard's health snapshot, the backing data of the
// sigtable_shard_* metric family.
type Stats struct {
	// Shard is the shard number (the metric label).
	Shard int
	// Live and Len are the shard's live and total (including
	// tombstoned) transaction counts; Entries its occupied
	// supercoordinates.
	Live    int
	Len     int
	Entries int
	// Scans counts queries that read this shard.
	Scans int64
	// LockWaitNanos accumulates time writers spent acquiring this
	// shard's writer mutex, the write-contention signal (queries take
	// no lock and contribute nothing here).
	LockWaitNanos int64
	// PagesRead is the shard store's cumulative page fetch count (disk
	// mode only).
	PagesRead int64
}

// Stats snapshots every shard's counters.
func (x *Index) Stats() []Stats {
	cur := x.load()
	out := make([]Stats, len(x.shards))
	for i, s := range x.shards {
		t := cur[i].Table
		st := Stats{
			Shard:         i,
			Live:          t.Live(),
			Len:           t.Len(),
			Entries:       t.NumEntries(),
			Scans:         s.scans.Load(),
			LockWaitNanos: s.lockWait.Load(),
		}
		if store := t.Store(); store != nil {
			st.PagesRead = store.Stats().Reads
		}
		out[i] = st
	}
	return out
}

// DirectoryStats aggregates the per-shard entry directories: slot and
// byte totals summed across shards, the process-wide ranking counters
// reported once (they are package-level in core, not per table).
func (x *Index) DirectoryStats() core.DirectoryStats {
	var agg core.DirectoryStats
	for _, p := range x.load() {
		st := p.Table.DirectoryStats()
		agg.Slots += st.Slots
		agg.Bytes += st.Bytes
		agg.Rebuilds, agg.Ranks, agg.RankSeconds = st.Rebuilds, st.Ranks, st.RankSeconds
	}
	return agg
}

// Validate runs each shard's consistency sweep plus the cross-shard
// invariants — one owner per coordinate, monotone local→global
// mappings, round-trip agreement between the routing table and the
// shards — returning the first violation.
func (x *Index) Validate() error {
	// The routing lock excludes mutations, so the loaded states are THE
	// current ones and stay consistent with route.loc for the sweep.
	x.route.mu.RLock()
	defer x.route.mu.RUnlock()
	cur := x.load()
	if c, a, b, ok := sharedCoord(cur); ok {
		return fmt.Errorf("shard: coordinate %#x has entries in shards %d and %d", c, a, b)
	}

	routed := 0
	for i, p := range cur {
		if err := p.Table.Validate(); err != nil {
			return fmt.Errorf("shard: shard %d: %w", i, err)
		}
		if len(p.Globals) != p.Table.Len() {
			return fmt.Errorf("shard: shard %d maps %d globals for %d transactions", i, len(p.Globals), p.Table.Len())
		}
		for local, g := range p.Globals {
			if local > 0 && p.Globals[local-1] >= g {
				return fmt.Errorf("shard: shard %d global mapping not increasing at local %d", i, local)
			}
			if int(g) >= len(x.route.loc) {
				return fmt.Errorf("shard: shard %d maps local %d to unknown global %d", i, local, g)
			}
			if l := x.route.loc[g]; l.shard != int32(i) || l.local != txn.TID(local) {
				return fmt.Errorf("shard: routing disagrees for global %d: shard %d local %d vs route {%d %d}",
					g, i, local, l.shard, l.local)
			}
		}
		routed += len(p.Globals)
	}
	present := 0
	for _, l := range x.route.loc {
		if l.shard >= 0 {
			present++
		}
	}
	if present != routed {
		return fmt.Errorf("shard: routing table has %d routed TIDs, shards hold %d", present, routed)
	}
	return nil
}

// sharedCoord finds a coordinate with entries in two shards, the
// violation of invariant 2, reporting it and the two shards.
func sharedCoord(s states) (c signature.Coord, a, b int, ok bool) {
	owner := make(map[signature.Coord]int)
	for i, p := range s {
		for _, e := range p.Table.Entries() {
			if o, dup := owner[e.Coord]; dup {
				return e.Coord, o, i, true
			}
			owner[e.Coord] = i
		}
	}
	return 0, 0, 0, false
}

// CoreBuildStats aggregates the per-shard build phase times (summed).
func (x *Index) CoreBuildStats() core.BuildStats {
	var agg core.BuildStats
	for _, p := range x.load() {
		bs := p.Table.BuildStats()
		agg.Coords += bs.Coords
		agg.Group += bs.Group
		agg.Write += bs.Write
	}
	return agg
}
