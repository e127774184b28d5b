package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"sigtable/internal/core"
	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// splitImage writes a sharded image in the manifest layout io.go
// documents, the way every image was written before shards owned whole
// coordinates: S contiguous runs of global TIDs, each indexed with
// core.Build, so most coordinates have entries in several shards.
func splitImage(t *testing.T, d *txn.Dataset, build func(*txn.Dataset) (*core.Table, error), S int) []byte {
	t.Helper()
	var img bytes.Buffer
	put := func(v any) {
		if err := binary.Write(&img, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	put(uint32(S))
	put(uint32(d.Len()))
	tables := make(states, S)
	lo := 0
	for i := range tables {
		count := d.Len() / S
		if i < d.Len()%S {
			count++
		}
		local := txn.NewDataset(d.UniverseSize())
		put(uint32(count))
		for g := lo; g < lo+count; g++ {
			local.Append(d.Get(txn.TID(g)))
			put(uint32(g))
		}
		lo += count
		table, err := build(local)
		if err != nil {
			t.Fatal(err)
		}
		tables[i].Table = table
	}
	if _, _, _, shared := sharedCoord(tables); !shared {
		t.Fatal("fixture: contiguous runs share no coordinate")
	}
	for _, p := range tables {
		var buf bytes.Buffer
		if _, err := p.Table.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		put(uint64(buf.Len()))
		img.Write(buf.Bytes())
	}
	return img.Bytes()
}

// TestReadSplitCoordinateImage: loading an image whose shards share
// coordinates rebuilds it into coordinate-owned shards with the same
// global TIDs, storage mode and partition — it validates, and answers
// byte-identically to a single table over the data.
func TestReadSplitCoordinateImage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	universe := 40
	d := randomDataset(rng, 300, universe)
	part := randomPartition(t, rng, universe, 6)
	targets := make([]txn.Transaction, 8)
	for i := range targets {
		targets[i] = randomTarget(rng, universe)
	}
	ctx := context.Background()

	for _, pageSize := range []int{0, 256} {
		build := func(data *txn.Dataset) (*core.Table, error) {
			return core.Build(data, part, core.BuildOptions{PageSize: pageSize})
		}
		x, err := Read(bytes.NewReader(splitImage(t, d, build, 3)), d)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Validate(); err != nil {
			t.Fatalf("page size %d: %v", pageSize, err)
		}
		if store := x.load()[0].Table.Store(); (store != nil) != (pageSize > 0) || (store != nil && store.PageSize() != pageSize) {
			t.Fatalf("page size %d: rebuilt shards lost the image's storage mode", pageSize)
		}
		single, err := build(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range allSimFuncs() {
			for i, target := range targets {
				opt := core.QueryOptions{K: 1 + i%5}
				want, err := single.Query(ctx, target, f, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := x.Query(ctx, target, f, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(t, want, got) {
					t.Fatalf("page size %d, %T, target %d: loaded index diverged from the single table", pageSize, f, i)
				}
				constraints := []core.RangeConstraint{{F: f, Threshold: 0.3}}
				wantR, err := single.RangeQuery(ctx, target, constraints, core.RangeOptions{})
				if err != nil {
					t.Fatal(err)
				}
				gotR, err := x.RangeQuery(ctx, target, constraints, core.RangeOptions{})
				if err != nil {
					t.Fatal(err)
				}
				wantR.PagesRead, gotR.PagesRead, wantR.Workers, gotR.Workers = 0, 0, 0, 0
				if !reflect.DeepEqual(wantR, gotR) {
					t.Fatalf("page size %d, %T, target %d: range diverged:\nsingle  %+v\nsharded %+v", pageSize, f, i, wantR, gotR)
				}
			}
		}
		if !reflect.DeepEqual(single.Explain(targets[0], simfun.Cosine{}), x.Explain(targets[0], simfun.Cosine{})) {
			t.Fatalf("page size %d: Explain diverged from the single table", pageSize)
		}
	}
}
