package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"sigtable/internal/core"
	"sigtable/internal/txn"
)

// Sharded manifest layout (little endian), written after the public
// package's envelope header:
//
//	shardCount u32
//	total      u32                      // size of the global TID space
//	shardCount × { count u32, count × global u32 }
//	shardCount × { tableLen u64, core table bytes (own SIGT header) }
//
// The per-shard table images are length-prefixed because core.ReadTable
// buffers its reader; the prefix lets the loader hand each shard an
// exact-length section. Like the single index, the dataset is persisted
// separately; the loader rebuilds each shard's local dataset from the
// global one via the globals mapping.

// WriteTo serializes the sharded index structure. Every shard must be
// tombstone-free (CompactShard first) and the global TID space must be
// hole-free — a compaction after deletes leaves permanent holes, in
// which case the index must be rebuilt from its dataset before it can
// be persisted.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	// The routing lock excludes mutations, so the loaded states are the
	// current ones and stay consistent with route.loc throughout.
	x.route.mu.RLock()
	defer x.route.mu.RUnlock()
	cur := x.load()

	for i, p := range cur {
		if p.Table.Live() != p.Table.Len() {
			return 0, fmt.Errorf("shard: shard %d has %d tombstoned transactions; CompactShard before persisting",
				i, p.Table.Len()-p.Table.Live())
		}
	}
	for g, l := range x.route.loc {
		if l.shard < 0 {
			return 0, fmt.Errorf("shard: global TID %d was compacted away; persisting needs a hole-free TID space (rebuild from the dataset)", g)
		}
	}

	var n int64
	var b4 [4]byte
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(b4[:], v)
		m, err := w.Write(b4[:])
		n += int64(m)
		return err
	}
	if err := writeU32(uint32(len(x.shards))); err != nil {
		return n, err
	}
	if err := writeU32(uint32(len(x.route.loc))); err != nil {
		return n, err
	}
	for _, p := range cur {
		if err := writeU32(uint32(len(p.Globals))); err != nil {
			return n, err
		}
		for _, g := range p.Globals {
			if err := writeU32(uint32(g)); err != nil {
				return n, err
			}
		}
	}
	var b8 [8]byte
	for i, p := range cur {
		var buf bytes.Buffer
		if _, err := p.Table.WriteTo(&buf); err != nil {
			return n, fmt.Errorf("shard: serializing shard %d: %w", i, err)
		}
		binary.LittleEndian.PutUint64(b8[:], uint64(buf.Len()))
		m, err := w.Write(b8[:])
		n += int64(m)
		if err != nil {
			return n, err
		}
		m64, err := io.Copy(w, &buf)
		n += m64
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Read loads a sharded index previously written with WriteTo, binding
// it to the global dataset it was built over. Per-shard local datasets
// are reconstructed from the globals mapping, and each shard's table is
// validated against its local dataset by core.ReadTable. An image whose
// shards share coordinates (every image written before shards owned
// whole coordinates) is rebuilt into coordinate-owned shards by
// Rebalance, with its global TIDs, partition and threshold.
func Read(r io.Reader, data *txn.Dataset) (*Index, error) {
	var b4 [4]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(r, b4[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b4[:]), nil
	}

	shardCount, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("shard: reading manifest: %w", err)
	}
	if shardCount == 0 || shardCount > 1<<16 {
		return nil, fmt.Errorf("shard: implausible shard count %d", shardCount)
	}
	total, err := readU32()
	if err != nil {
		return nil, err
	}
	if int(total) != data.Len() {
		return nil, fmt.Errorf("shard: index built over %d transactions, dataset has %d", total, data.Len())
	}

	allGlobals := make([][]txn.TID, shardCount)
	covered := make([]bool, total)
	for i := range allGlobals {
		count, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d globals: %w", i, err)
		}
		if uint64(count) > uint64(total) {
			return nil, fmt.Errorf("shard: shard %d declares %d globals for %d transactions", i, count, total)
		}
		globals := make([]txn.TID, count)
		for j := range globals {
			g, err := readU32()
			if err != nil {
				return nil, fmt.Errorf("shard: shard %d global %d: %w", i, j, err)
			}
			if g >= total {
				return nil, fmt.Errorf("shard: shard %d references global TID %d beyond dataset", i, g)
			}
			if j > 0 && txn.TID(g) <= globals[j-1] {
				return nil, fmt.Errorf("shard: shard %d global mapping not increasing at %d", i, j)
			}
			if covered[g] {
				return nil, fmt.Errorf("shard: global TID %d mapped to two shards", g)
			}
			covered[g] = true
			globals[j] = txn.TID(g)
		}
		allGlobals[i] = globals
	}
	for g, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("shard: global TID %d mapped to no shard", g)
		}
	}

	x := &Index{
		universe: data.UniverseSize(),
		opt:      Options{Shards: int(shardCount)},
		shards:   make([]*shard, shardCount),
	}
	for i := range x.shards {
		x.shards[i] = &shard{}
	}
	x.route.loc = make([]location, total)
	parts := make(states, shardCount)
	var b8 [8]byte
	for i, globals := range allGlobals {
		if _, err := io.ReadFull(r, b8[:]); err != nil {
			return nil, fmt.Errorf("shard: shard %d table length: %w", i, err)
		}
		tableLen := binary.LittleEndian.Uint64(b8[:])
		local := txn.NewDataset(data.UniverseSize())
		local.Grow(len(globals))
		for _, g := range globals {
			local.Append(data.Get(g))
		}
		table, err := core.ReadTable(io.LimitReader(r, int64(tableLen)), local)
		if err != nil {
			return nil, fmt.Errorf("shard: loading shard %d: %w", i, err)
		}
		parts[i] = core.Part{Table: table, Globals: globals}
	}

	// Every shard must share one partition and threshold (invariant 1);
	// the serialized copies are equal by construction, so adopt shard
	// 0's and verify the cheap fingerprints of the rest. A later
	// Rebalance rebuilds in the image's storage mode.
	t0 := parts[0].Table
	x.part = t0.Partition()
	x.r = t0.ActivationThreshold()
	if store := t0.Store(); store != nil {
		x.opt.PageSize, x.opt.PageFormat = store.PageSize(), store.Format()
	}
	for i, p := range parts[1:] {
		if p.Table.K() != x.part.K() || p.Table.ActivationThreshold() != x.r {
			return nil, fmt.Errorf("shard: shard %d partition disagrees with shard 0", i+1)
		}
	}
	x.routeAll(parts)
	x.publish(parts)

	// Images written before shards owned whole coordinates split
	// entries across shards (contiguous TID runs at build, g mod S on
	// insert). Rebuild those into coordinate-owned shards, keeping the
	// global TIDs. No reader ever saw the image's tables, and loaded
	// tables hold no page file or prefetch worker, so they are dropped
	// rather than retired.
	if _, _, _, shared := sharedCoord(parts); shared {
		if err := x.Rebalance(); err != nil {
			return nil, err
		}
		for _, s := range x.shards {
			s.retired = nil
		}
	}
	return x, nil
}
