package pager

import (
	"math/rand"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"sigtable/internal/bitset"
	"sigtable/internal/txn"
)

// scanAllV2 collects every record of a list after sealing the store.
func collectList(t *testing.T, s *Store, l List) ([]txn.TID, []txn.Transaction) {
	t.Helper()
	var ids []txn.TID
	var txns []txn.Transaction
	if err := s.ScanList(l, nil, func(id txn.TID, tr txn.Transaction) bool {
		ids = append(ids, id)
		txns = append(txns, tr)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return ids, txns
}

func checkListEqual(t *testing.T, s *Store, l List, tids []txn.TID, txns []txn.Transaction) {
	t.Helper()
	gotIDs, gotTxns := collectList(t, s, l)
	if len(gotIDs) != len(tids) {
		t.Fatalf("scanned %d records, want %d", len(gotIDs), len(tids))
	}
	for i := range gotIDs {
		if gotIDs[i] != tids[i] || !gotTxns[i].Equal(txns[i]) {
			t.Fatalf("record %d = (%d, %v), want (%d, %v)", i, gotIDs[i], gotTxns[i], tids[i], txns[i])
		}
	}
}

func TestV2WriteScanRoundTrip(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			var s *Store
			if backend == "file" {
				var err error
				s, err = NewFileStoreFormat(filepath.Join(t.TempDir(), "pages"), 256, FormatV2)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
			} else {
				s = NewStoreFormat(256, FormatV2)
			}
			type written struct {
				l    List
				tids []txn.TID
				txns []txn.Transaction
			}
			var lists []written
			for i := 0; i < 20; i++ {
				tids, txns := randomTxns(rng, 1+rng.Intn(150))
				l, err := s.WriteList(tids, txns)
				if err != nil {
					t.Fatal(err)
				}
				lists = append(lists, written{l, tids, txns})
			}
			s.Seal()
			for _, w := range lists {
				checkListEqual(t, s, w.l, w.tids, w.txns)
			}
		})
	}
}

// TestV2SharedPagesPackLists is the point of the format: many small
// lists share pages instead of each claiming its own.
func TestV2SharedPagesPackLists(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	s := NewStoreFormat(4096, FormatV2)
	const nLists = 500
	for i := 0; i < nLists; i++ {
		tids, txns := randomTxns(rng, 2) // tiny list: a few dozen bytes
		if _, err := s.WriteList(tids, txns); err != nil {
			t.Fatal(err)
		}
	}
	s.Seal()
	if got := s.NumPages(); got > nLists/10 {
		t.Fatalf("%d tiny lists occupy %d pages; want shared pages (v1 would use %d)", nLists, got, nLists)
	}
	st := s.Stats()
	if st.BytesWritten <= 0 || st.BytesLogical <= st.BytesWritten {
		t.Fatalf("BytesLogical/BytesWritten = %d/%d, want compression > 1", st.BytesLogical, st.BytesWritten)
	}
}

func TestV2ScanListFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, format := range []Format{FormatV1, FormatV2} {
		s := NewStoreFormat(256, format)
		// Sorted TIDs: the realistic shape (entry lists are built in
		// TID order) and the one where frame skipping pays.
		tids, txns := randomTxns(rng, 300)
		for i := range tids {
			tids[i] = txn.TID(10 * i)
		}
		l, err := s.WriteList(tids, txns)
		if err != nil {
			t.Fatal(err)
		}
		s.Seal()
		from := txn.TID(10 * 257)
		var got []txn.TID
		if err := s.ScanListFrom(l, nil, from, func(id txn.TID, tr txn.Transaction) bool {
			got = append(got, id)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != 300-257 {
			t.Fatalf("format %v: ScanListFrom returned %d records, want %d", format, len(got), 300-257)
		}
		for i, id := range got {
			if id != txn.TID(10*(257+i)) {
				t.Fatalf("format %v: record %d = %d, want %d", format, i, id, 10*(257+i))
			}
		}
	}
}

// TestV2FrameSkipBounds checks the skip metadata directly: every
// frame's header bounds exactly the TIDs inside it.
func TestV2FrameSkipBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	tids, txns := randomTxns(rng, 500)
	frames, _, err := encodeFrames(4096, tids, txns)
	if err != nil {
		t.Fatal(err)
	}
	rec := 0
	for fi, fr := range frames {
		f, n, err := parseFrame(fr)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(fr) {
			t.Fatalf("frame %d: parsed %d of %d bytes", fi, n, len(fr))
		}
		lo, hi := f.minTID, f.maxTID
		stopped, err := f.decode(func(id txn.TID, tr txn.Transaction) bool {
			if uint64(id) < lo || uint64(id) > hi {
				t.Fatalf("frame %d: TID %d outside header bounds [%d, %d]", fi, id, lo, hi)
			}
			if id != tids[rec] || !tr.Equal(txns[rec]) {
				t.Fatalf("frame %d record %d mismatch", fi, rec)
			}
			rec++
			return true
		})
		if err != nil || stopped {
			t.Fatalf("frame %d: decode err=%v stopped=%v", fi, err, stopped)
		}
	}
	if rec != len(tids) {
		t.Fatalf("decoded %d records, want %d", rec, len(tids))
	}
}

func TestScanListStatsMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const universe = 1000
	target := make(txn.Transaction, 0, 40)
	seen := map[int]bool{}
	for len(target) < 40 {
		it := rng.Intn(universe)
		if !seen[it] {
			seen[it] = true
			target = append(target, txn.Item(it))
		}
	}
	target = txn.New([]txn.Item(target)...)
	mask := bitset.New(universe)
	target.SetBits(mask)

	for _, format := range []Format{FormatV1, FormatV2} {
		for _, cache := range []int64{0, 1 << 20} {
			s := NewStoreFormat(128, format)
			if cache > 0 {
				s.AttachDecodeCache(cache)
			}
			tids, txns := randomTxns(rng, 250)
			l, err := s.WriteList(tids, txns)
			if err != nil {
				t.Fatal(err)
			}
			s.Seal()
			for pass := 0; pass < 2; pass++ { // second pass exercises cache hits
				i := 0
				var reads atomic.Int64
				err = s.ScanListStats(l, &reads, mask, len(target), func(id txn.TID, x, y int) bool {
					wantX, wantY := txn.MatchHammingBits(mask, len(target), txns[i])
					if id != tids[i] || x != wantX || y != wantY {
						t.Fatalf("format %v cache %d record %d: (%d, %d, %d), want (%d, %d, %d)",
							format, cache, i, id, x, y, tids[i], wantX, wantY)
					}
					i++
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if i != len(tids) {
					t.Fatalf("scanned %d records, want %d", i, len(tids))
				}
			}
			// Early stop must not error and must stop.
			n := 0
			err = s.ScanListStats(l, nil, mask, len(target), func(txn.TID, int, int) bool {
				n++
				return n < 5
			})
			if err != nil || n != 5 {
				t.Fatalf("early stop: n=%d err=%v", n, err)
			}
		}
	}
}

func TestV2EmptyAndOversized(t *testing.T) {
	s := NewStoreFormat(64, FormatV2)
	l, err := s.WriteList(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Count != 0 || len(l.Pages) != 0 {
		t.Fatalf("empty list = %+v", l)
	}
	// Empty transactions are legal records.
	le, err := s.WriteList([]txn.TID{7, 9}, []txn.Transaction{txn.New(), txn.New()})
	if err != nil {
		t.Fatal(err)
	}
	s.Seal()
	checkListEqual(t, s, le, []txn.TID{7, 9}, []txn.Transaction{txn.New(), txn.New()})

	// Wide gaps defeat the bit-packing: ~16 bits per item keeps even a
	// single-record frame well over the 64-byte page.
	big := make([]txn.Item, 200)
	for i := range big {
		big[i] = txn.Item(i * 50000)
	}
	_, err = s.WriteList([]txn.TID{1}, []txn.Transaction{txn.New(big...)})
	if err == nil || !strings.Contains(err.Error(), "exceeding page size") {
		t.Fatalf("oversized record error = %v", err)
	}
}

// TestV2SealRequiredBeforeScan pins the write-once discipline: the
// tail page is only readable after Seal.
func TestV2SealGatesTail(t *testing.T) {
	s := NewStoreFormat(4096, FormatV2)
	tids, txns := randomTxns(rand.New(rand.NewSource(27)), 10)
	l, err := s.WriteList(tids, txns)
	if err != nil {
		t.Fatal(err)
	}
	s.Seal()
	checkListEqual(t, s, l, tids, txns)
	if got := s.Stats().Writes; got != 1 {
		t.Fatalf("Writes = %d, want 1 sealed tail page", got)
	}
	s.Seal() // idempotent
	if got := s.Stats().Writes; got != 1 {
		t.Fatalf("second Seal wrote: Writes = %d", got)
	}
}
