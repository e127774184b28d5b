package pager

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"

	"sigtable/internal/bitset"
	"sigtable/internal/txn"
)

// Format v2: block-compressed pages. Where v1 spends one uvarint record
// per transaction and dedicates whole pages to a single entry list, v2
// groups records into fixed-size frames and packs the frames of many
// lists into shared pages — a List carries a byte offset (List.Start)
// into its first page. The frame is the unit of compression and of
// skipping:
//
//	frame  := header body
//	header := flags        1 byte: (count-1) | 0x80 when the body is
//	                       varint-encoded (outlier fallback)
//	          uvarint minTID   smallest TID in the frame (FOR base)
//	          uvarint span     largest TID minus minTID
//	          uvarint bodyLen  body size in bytes (enables frame skip)
//
// A packed body opens with three width bytes (tidW, lenW, itemW) and
// then one LSB-first bit stream: count zigzag TID deltas at tidW bits
// (the first delta is relative to minTID), count record lengths at
// lenW bits, then every item gap at itemW bits (each record's first
// item absolute, subsequent ones as diffs — transactions are strictly
// increasing so gaps are small). Widths are the minimum bits covering
// the frame's largest value, so one outlier TID or item only inflates
// its own frame; when the packed form would be larger than plain
// varints (tiny frames, wild deltas) the flags bit selects a varint
// body with the same field order per record. Frames never span pages.
//
// minTID and span bound every TID in the frame, so a scan looking for
// TIDs >= from skips a frame entirely — header parse, no body decode —
// whenever minTID+span < from.

// frameRecords is the maximum records per frame. 64 keeps the widths
// responsive to local skew while amortizing the header to a fraction
// of a byte per record.
const frameRecords = 64

// frameVarints is the flags bit selecting the varint fallback body.
const frameVarints = 0x80

func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

// bitWriter packs values LSB-first. Widths stay well under 57 bits
// (TID zigzag deltas need at most 33), so acc never overflows.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

func (w *bitWriter) write(v uint64, width uint) {
	w.acc |= v << w.n
	w.n += width
	for w.n >= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.n -= 8
	}
}

func (w *bitWriter) flush() {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc, w.n = 0, 0
	}
}

// bitReader mirrors bitWriter. Reads past the end return 0 and set
// short; callers check short once per frame rather than per value.
type bitReader struct {
	data  []byte
	pos   int
	acc   uint64
	n     uint
	short bool
}

func (r *bitReader) read(width uint) uint64 {
	for r.n < width {
		if r.pos >= len(r.data) {
			r.short = true
			return 0
		}
		r.acc |= uint64(r.data[r.pos]) << r.n
		r.pos++
		r.n += 8
	}
	v := r.acc & (1<<width - 1)
	r.acc >>= width
	r.n -= width
	return v
}

// logicalSize is the uncompressed footprint of one record — 4-byte
// TID, 4-byte length, 4 bytes per item — the numerator of the
// compression ratio the stats report.
func logicalSize(t txn.Transaction) int64 { return 8 + 4*int64(len(t)) }

// encodeFrame serializes up to frameRecords records as one frame.
func encodeFrame(tids []txn.TID, txns []txn.Transaction) []byte {
	count := len(tids)
	minT, maxT := tids[0], tids[0]
	for _, id := range tids[1:] {
		if id < minT {
			minT = id
		}
		if id > maxT {
			maxT = id
		}
	}

	// Zigzag TID deltas (TIDs need not be sorted), record lengths, and
	// item gaps, plus the width each series needs. The deltas live on
	// the stack: as a heap allocation, an 8-byte one-record array would
	// share a tiny-allocator block with the list's page-ID slice and be
	// retained with it for the life of the index.
	var ztBuf [frameRecords]uint64
	zt := ztBuf[:count]
	prev := int64(minT)
	tidW, lenW, itemW := 0, 0, 0
	totalItems := 0
	for i, id := range tids {
		zt[i] = zigzag(int64(id) - prev)
		prev = int64(id)
		if w := bits.Len64(zt[i]); w > tidW {
			tidW = w
		}
		t := txns[i]
		if w := bits.Len64(uint64(len(t))); w > lenW {
			lenW = w
		}
		totalItems += len(t)
		prevItem := uint64(0)
		for j, x := range t {
			g := uint64(x)
			if j > 0 {
				g -= prevItem
			}
			if w := bits.Len64(g); w > itemW {
				itemW = w
			}
			prevItem = uint64(x)
		}
	}

	packedBits := count*(tidW+lenW) + totalItems*itemW
	packedSize := 3 + (packedBits+7)/8
	varintSize := 0
	var tmp [binary.MaxVarintLen64]byte
	for i, t := range txns {
		varintSize += binary.PutUvarint(tmp[:], zt[i])
		varintSize += binary.PutUvarint(tmp[:], uint64(len(t)))
		prevItem := uint64(0)
		for j, x := range t {
			g := uint64(x)
			if j > 0 {
				g -= prevItem
			}
			varintSize += binary.PutUvarint(tmp[:], g)
			prevItem = uint64(x)
		}
	}

	flags := byte(count - 1)
	bodyLen := packedSize
	if varintSize < packedSize {
		flags |= frameVarints
		bodyLen = varintSize
	}
	fr := make([]byte, 0, 1+3*binary.MaxVarintLen64+bodyLen)
	fr = append(fr, flags)
	n := binary.PutUvarint(tmp[:], uint64(minT))
	fr = append(fr, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(maxT-minT))
	fr = append(fr, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(bodyLen))
	fr = append(fr, tmp[:n]...)

	if flags&frameVarints != 0 {
		for i, t := range txns {
			n = binary.PutUvarint(tmp[:], zt[i])
			fr = append(fr, tmp[:n]...)
			n = binary.PutUvarint(tmp[:], uint64(len(t)))
			fr = append(fr, tmp[:n]...)
			prevItem := uint64(0)
			for j, x := range t {
				g := uint64(x)
				if j > 0 {
					g -= prevItem
				}
				n = binary.PutUvarint(tmp[:], g)
				fr = append(fr, tmp[:n]...)
				prevItem = uint64(x)
			}
		}
		return fr
	}

	fr = append(fr, byte(tidW), byte(lenW), byte(itemW))
	w := bitWriter{buf: fr}
	for _, z := range zt {
		w.write(z, uint(tidW))
	}
	for _, t := range txns {
		w.write(uint64(len(t)), uint(lenW))
	}
	for _, t := range txns {
		prevItem := uint64(0)
		for j, x := range t {
			g := uint64(x)
			if j > 0 {
				g -= prevItem
			}
			w.write(g, uint(itemW))
			prevItem = uint64(x)
		}
	}
	w.flush()
	return w.buf
}

// encodeFrames splits a list into frames, each at most pageSize bytes
// so it can be placed whole on some page. A frame whose encoding
// overflows the page is re-cut with fewer records; a single record too
// large for any page is rejected, mirroring v1's oversized-record
// error. Returns the frames and the list's logical (uncompressed)
// byte size.
func encodeFrames(pageSize int, tids []txn.TID, txns []txn.Transaction) ([][]byte, int64, error) {
	if len(tids) != len(txns) {
		return nil, 0, fmt.Errorf("pager: %d tids for %d transactions", len(tids), len(txns))
	}
	var frames [][]byte
	var logical int64
	for _, t := range txns {
		logical += logicalSize(t)
	}
	i := 0
	for i < len(txns) {
		take := len(txns) - i
		if take > frameRecords {
			take = frameRecords
		}
		fr := encodeFrame(tids[i:i+take], txns[i:i+take])
		for len(fr) > pageSize && take > 1 {
			take = (take + 1) / 2
			fr = encodeFrame(tids[i:i+take], txns[i:i+take])
		}
		if len(fr) > pageSize {
			return nil, 0, fmt.Errorf("pager: transaction %d encodes to %d bytes, exceeding page size %d", tids[i], len(fr), pageSize)
		}
		frames = append(frames, fr)
		i += take
	}
	return frames, logical, nil
}

// v2Frame is one parsed frame header plus its (undecoded) body.
type v2Frame struct {
	count   int
	varints bool
	minTID  uint64
	maxTID  uint64
	body    []byte
}

// parseFrame reads the frame starting at data[0] and returns it with
// the total encoded size (header + body).
func parseFrame(data []byte) (v2Frame, int, error) {
	var f v2Frame
	if len(data) == 0 {
		return f, 0, fmt.Errorf("pager: empty frame")
	}
	flags := data[0]
	f.count = int(flags&^frameVarints) + 1
	f.varints = flags&frameVarints != 0
	if f.count > frameRecords {
		return f, 0, fmt.Errorf("pager: frame claims %d records, limit %d", f.count, frameRecords)
	}
	off := 1
	minT, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return f, 0, fmt.Errorf("pager: corrupt frame minTID")
	}
	off += n
	span, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return f, 0, fmt.Errorf("pager: corrupt frame span")
	}
	off += n
	bodyLen, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return f, 0, fmt.Errorf("pager: corrupt frame body length")
	}
	off += n
	if uint64(len(data)-off) < bodyLen {
		return f, 0, fmt.Errorf("pager: frame body truncated: need %d bytes, have %d", bodyLen, len(data)-off)
	}
	f.minTID = minT
	f.maxTID = minT + span
	f.body = data[off : off+int(bodyLen)]
	return f, off + int(bodyLen), nil
}

// decode materializes every record of the frame, invoking emit in
// order. Returns true if emit stopped the scan.
func (f *v2Frame) decode(emit func(id txn.TID, t txn.Transaction) bool) (bool, error) {
	if f.varints {
		off := 0
		prev := int64(f.minTID)
		for r := 0; r < f.count; r++ {
			z, n := binary.Uvarint(f.body[off:])
			if n <= 0 {
				return false, fmt.Errorf("pager: corrupt frame TID delta")
			}
			off += n
			prev += unzigzag(z)
			length, n := binary.Uvarint(f.body[off:])
			if n <= 0 {
				return false, fmt.Errorf("pager: corrupt frame record length")
			}
			off += n
			t := make(txn.Transaction, length)
			prevItem := uint64(0)
			for j := range t {
				g, n := binary.Uvarint(f.body[off:])
				if n <= 0 {
					return false, fmt.Errorf("pager: corrupt frame item gap")
				}
				off += n
				prevItem += g
				t[j] = txn.Item(prevItem)
			}
			if !emit(txn.TID(prev), t) {
				return true, nil
			}
		}
		return false, nil
	}

	tidW, lenW, itemW, r, err := f.openPacked()
	if err != nil {
		return false, err
	}
	var ids [frameRecords]txn.TID
	var lens [frameRecords]int
	prev := int64(f.minTID)
	for i := 0; i < f.count; i++ {
		prev += unzigzag(r.read(tidW))
		ids[i] = txn.TID(prev)
	}
	for i := 0; i < f.count; i++ {
		lens[i] = int(r.read(lenW))
	}
	for i := 0; i < f.count; i++ {
		t := make(txn.Transaction, lens[i])
		prevItem := uint64(0)
		for j := range t {
			prevItem += r.read(itemW)
			t[j] = txn.Item(prevItem)
		}
		if r.short {
			return false, fmt.Errorf("pager: packed frame body truncated")
		}
		if !emit(ids[i], t) {
			return true, nil
		}
	}
	return false, nil
}

// decodeStats unpacks the frame while probing each item against the
// membership mask, emitting (id, record length, match count) per
// record without materializing items — the fused half of the
// decode-and-score kernel. Every item in the frame must be below the
// mask's capacity (core validates items against the universe).
func (f *v2Frame) decodeStats(mask *bitset.Set, emit func(id txn.TID, n, match int) bool) (bool, error) {
	if f.varints {
		off := 0
		prev := int64(f.minTID)
		for r := 0; r < f.count; r++ {
			z, n := binary.Uvarint(f.body[off:])
			if n <= 0 {
				return false, fmt.Errorf("pager: corrupt frame TID delta")
			}
			off += n
			prev += unzigzag(z)
			length, n := binary.Uvarint(f.body[off:])
			if n <= 0 {
				return false, fmt.Errorf("pager: corrupt frame record length")
			}
			off += n
			x := 0
			prevItem := uint64(0)
			for j := 0; j < int(length); j++ {
				g, n := binary.Uvarint(f.body[off:])
				if n <= 0 {
					return false, fmt.Errorf("pager: corrupt frame item gap")
				}
				off += n
				prevItem += g
				if mask.TestUnchecked(int(prevItem)) {
					x++
				}
			}
			if !emit(txn.TID(prev), int(length), x) {
				return true, nil
			}
		}
		return false, nil
	}

	tidW, lenW, itemW, r, err := f.openPacked()
	if err != nil {
		return false, err
	}
	// parseFrame bounds count at frameRecords, so fixed-size stack
	// arrays hold the TID and length columns: the fused scan allocates
	// nothing per frame.
	var ids [frameRecords]txn.TID
	var lens [frameRecords]int
	prev := int64(f.minTID)
	for i := 0; i < f.count; i++ {
		prev += unzigzag(r.read(tidW))
		ids[i] = txn.TID(prev)
	}
	for i := 0; i < f.count; i++ {
		lens[i] = int(r.read(lenW))
	}
	for i := 0; i < f.count; i++ {
		x := 0
		prevItem := uint64(0)
		for j := 0; j < lens[i]; j++ {
			prevItem += r.read(itemW)
			if mask.TestUnchecked(int(prevItem)) {
				x++
			}
		}
		if r.short {
			return false, fmt.Errorf("pager: packed frame body truncated")
		}
		if !emit(ids[i], lens[i], x) {
			return true, nil
		}
	}
	return false, nil
}

// openPacked validates a packed body's width bytes and positions a
// bitReader after them. The reader is returned by value so hot scan
// loops keep it on the stack.
func (f *v2Frame) openPacked() (tidW, lenW, itemW uint, r bitReader, err error) {
	if len(f.body) < 3 {
		return 0, 0, 0, r, fmt.Errorf("pager: packed frame body too short")
	}
	tidW, lenW, itemW = uint(f.body[0]), uint(f.body[1]), uint(f.body[2])
	if tidW > 34 || lenW > 32 || itemW > 32 {
		return 0, 0, 0, r, fmt.Errorf("pager: corrupt frame bit widths %d/%d/%d", tidW, lenW, itemW)
	}
	return tidW, lenW, itemW, bitReader{data: f.body[3:]}, nil
}

// v2Cursor walks the frames of a v2 list across its shared pages. Page
// fetches go through a runReader, so the contiguous page runs the v2
// writer lays out are pulled with coalesced backend reads.
type v2Cursor struct {
	s         *Store
	l         List
	reads     *atomic.Int64
	rr        runReader
	pi        int // index into l.Pages of the loaded page
	data      []byte
	off       int
	remaining int
}

func (c *v2Cursor) init() error {
	c.remaining = c.l.Count
	if c.remaining == 0 {
		return nil
	}
	if len(c.l.Pages) == 0 {
		return fmt.Errorf("pager: list declared %d transactions but has no pages", c.l.Count)
	}
	c.rr = newRunReader(c.s, c.l.Pages, c.reads)
	c.data = c.rr.next()
	c.off = c.l.Start
	if c.off > len(c.data) {
		return fmt.Errorf("pager: list start %d beyond page %d payload (%d bytes)", c.off, c.l.Pages[0], len(c.data))
	}
	return nil
}

// next parses the next frame header, fetching the next page when the
// current one is exhausted. Returns done=true when every record has
// been consumed.
func (c *v2Cursor) next() (v2Frame, bool, error) {
	if c.remaining <= 0 {
		return v2Frame{}, true, nil
	}
	if c.off >= len(c.data) {
		c.pi++
		if c.pi >= len(c.l.Pages) {
			return v2Frame{}, false, fmt.Errorf("pager: list declared %d transactions but pages held %d", c.l.Count, c.l.Count-c.remaining)
		}
		c.data = c.rr.next()
		c.off = 0
	}
	f, n, err := parseFrame(c.data[c.off:])
	if err != nil {
		return v2Frame{}, false, err
	}
	if f.count > c.remaining {
		return v2Frame{}, false, fmt.Errorf("pager: frame holds %d records but list has %d left", f.count, c.remaining)
	}
	c.off += n
	c.remaining -= f.count
	return f, false, nil
}

// scanPagesV2 is scanPages for the v2 format: same contract, frame
// decoding instead of per-record varints.
func (s *Store) scanPagesV2(l List, reads *atomic.Int64, fn func(id txn.TID, t txn.Transaction) bool) (bool, error) {
	c := v2Cursor{s: s, l: l, reads: reads}
	if err := c.init(); err != nil {
		return false, err
	}
	for {
		f, done, err := c.next()
		if err != nil {
			return false, err
		}
		if done {
			return true, nil
		}
		seen := 0
		stopped, err := f.decode(func(id txn.TID, t txn.Transaction) bool {
			seen++
			return fn(id, t)
		})
		if err != nil {
			return false, err
		}
		if stopped {
			// Complete only if this was the final record of the list.
			return c.remaining == 0 && seen == f.count, nil
		}
	}
}
