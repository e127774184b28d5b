package pager

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
)

// fileBackend stores pages in fixed-size slots of an operating-system
// file, so the "simulated" disk can be an actual disk. Each slot is
// pageSize+4 bytes: a little-endian length prefix followed by the
// payload. All I/O is positional (ReadAt/WriteAt, i.e. pread/pwrite),
// which never touches the shared file offset, so concurrent page reads
// and writes to distinct slots proceed without serializing on a lock.
// The mutex guards only the count counter — the one piece of mutable
// shared state.
type fileBackend struct {
	mu       sync.Mutex
	f        *os.File
	pageSize int
	count    int
}

func (b *fileBackend) pageCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count
}

// NewFileStore creates a store whose pages live in the file at path
// (truncated if it exists), using the v1 page format. Close releases
// the file handle.
func NewFileStore(path string, pageSize int) (*Store, error) {
	return NewFileStoreFormat(path, pageSize, FormatV1)
}

// NewFileStoreFormat is NewFileStore with an explicit page format.
func NewFileStoreFormat(path string, pageSize int, format Format) (*Store, error) {
	pageSize = checkPageSize(pageSize)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: opening %s: %w", path, err)
	}
	return &Store{
		pageSize: pageSize,
		format:   checkFormat(format),
		back:     &fileBackend{f: f, pageSize: pageSize},
	}, nil
}

// Close stops the store's prefetch workers, then releases the backing
// file, if any. Stopping before closing matters: a worker mid-fetch
// holds the file handle, and StopPrefetcher waits for workers to
// drain, so no pread ever races the close.
func (s *Store) Close() error {
	s.StopPrefetcher()
	if fb, ok := s.back.(*fileBackend); ok {
		return fb.f.Close()
	}
	return nil
}

func (b *fileBackend) slotSize() int64 { return int64(b.pageSize) + 4 }

func (b *fileBackend) append(data []byte) (PageID, error) {
	id, err := b.reserve()
	if err != nil {
		return 0, err
	}
	return id, b.writeAt(id, data)
}

func (b *fileBackend) reserve() (PageID, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.count++
	return PageID(b.count - 1), nil
}

// writeAt fills a reserved slot. os.File.WriteAt is positional and
// safe for concurrent use, so the mutex is only held for the bounds
// check, letting reads of other slots overlap the write's I/O.
func (b *fileBackend) writeAt(id PageID, data []byte) error {
	if int(id) >= b.pageCount() {
		return fmt.Errorf("pager: write to unreserved page %d", id)
	}
	slot := make([]byte, b.slotSize())
	binary.LittleEndian.PutUint32(slot, uint32(len(data)))
	copy(slot[4:], data)
	if _, err := b.f.WriteAt(slot, int64(id)*b.slotSize()); err != nil {
		return fmt.Errorf("pager: writing page %d: %w", id, err)
	}
	return nil
}

// read fetches a slot with a positional ReadAt, holding no lock across
// the I/O: concurrent readers — parallel searches and prefetch workers —
// issue overlapping preads instead of queueing on one mutex.
func (b *fileBackend) read(id PageID) ([]byte, error) {
	if int(id) >= b.pageCount() {
		return nil, fmt.Errorf("pager: read of unallocated page %d", id)
	}
	slot := make([]byte, b.slotSize())
	if _, err := b.f.ReadAt(slot, int64(id)*b.slotSize()); err != nil {
		return nil, fmt.Errorf("pager: reading page %d: %w", id, err)
	}
	n := binary.LittleEndian.Uint32(slot)
	if int(n) > b.pageSize {
		return nil, fmt.Errorf("pager: page %d declares %d bytes, page size is %d", id, n, b.pageSize)
	}
	return slot[4 : 4+n], nil
}

// readPages fetches n consecutive slots with a single positional
// ReadAt — one pread where the per-page path would issue n — then
// splits the buffer into per-slot payloads. Each payload aliases the
// shared buffer; pages are write-once, so the aliasing is safe.
func (b *fileBackend) readPages(base PageID, n int) ([][]byte, error) {
	if int(base)+n > b.pageCount() {
		return nil, fmt.Errorf("pager: read of unallocated pages [%d,%d)", base, int(base)+n)
	}
	slot := b.slotSize()
	buf := make([]byte, slot*int64(n))
	if _, err := b.f.ReadAt(buf, int64(base)*slot); err != nil {
		return nil, fmt.Errorf("pager: reading pages [%d,%d): %w", base, int(base)+n, err)
	}
	run := make([][]byte, n)
	for i := range run {
		s := buf[int64(i)*slot : int64(i+1)*slot]
		ln := binary.LittleEndian.Uint32(s)
		if int(ln) > b.pageSize {
			return nil, fmt.Errorf("pager: page %d declares %d bytes, page size is %d", base+PageID(i), ln, b.pageSize)
		}
		run[i] = s[4 : 4+ln]
	}
	return run, nil
}

func (b *fileBackend) numPages() int {
	return b.pageCount()
}
