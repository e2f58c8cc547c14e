package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A chain is a singly linked list of pages holding fixed-width records, the
// "blocked fashion" the paper stores cover-lists, caches, and X/Y/A/S lists
// in: B records per page, read sequentially, with early termination as soon
// as a record falls outside the query. Reading k records from a chain costs
// ⌈k/B⌉ I/Os.
//
// Page layout: [next PageID int64][count uint16][records...].
const chainHeader = 10

// ErrRecordSize reports a record size that does not fit the page.
var ErrRecordSize = errors.New("disk: record size does not fit page")

// ChainCap returns the number of records of size recSize that fit in one
// chain page of pageSize bytes — the "B" of the I/O model for that record
// type.
func ChainCap(pageSize, recSize int) int {
	return (pageSize - chainHeader) / recSize
}

// ChainWriter builds a chain by appending records. It buffers one page in
// memory and writes it when full, so building a chain of k records costs
// ⌈k/B⌉ write I/Os.
type ChainWriter struct {
	p       Pager
	recSize int
	cap     int
	head    PageID
	cur     PageID
	buf     []byte
	n       int // records in buf
	count   int // total records appended
	pages   int
	pageIDs []PageID
	closed  bool
}

// NewChainWriter prepares a writer for records of recSize bytes.
func NewChainWriter(p Pager, recSize int) (*ChainWriter, error) {
	c := ChainCap(p.PageSize(), recSize)
	if recSize <= 0 || c < 1 {
		return nil, fmt.Errorf("%w: rec=%d page=%d", ErrRecordSize, recSize, p.PageSize())
	}
	return &ChainWriter{
		p:       p,
		recSize: recSize,
		cap:     c,
		head:    InvalidPage,
		cur:     InvalidPage,
		buf:     make([]byte, p.PageSize()),
	}, nil
}

// Append adds one record to the chain.
func (w *ChainWriter) Append(rec []byte) error {
	if w.closed {
		return errors.New("disk: append to closed chain writer")
	}
	if len(rec) != w.recSize {
		return fmt.Errorf("%w: got %d want %d", ErrRecordSize, len(rec), w.recSize)
	}
	if w.n == w.cap || w.cur == InvalidPage {
		if err := w.rollPage(); err != nil {
			return err
		}
	}
	copy(w.buf[chainHeader+w.n*w.recSize:], rec)
	w.n++
	w.count++
	return nil
}

// rollPage flushes the current page (if any) and starts a new one linked
// after it.
func (w *ChainWriter) rollPage() error {
	next, err := w.p.Alloc()
	if err != nil {
		return err
	}
	if w.cur == InvalidPage {
		w.head = next
	} else {
		w.setHeader(next)
		if err := w.p.Write(w.cur, w.buf); err != nil {
			return err
		}
	}
	for i := range w.buf {
		w.buf[i] = 0
	}
	w.cur = next
	w.n = 0
	w.pages++
	w.pageIDs = append(w.pageIDs, next)
	return nil
}

// Pages returns the ids of the chain's pages in order, valid after Close.
// Callers use it to build page directories for positioned scans.
func (w *ChainWriter) Pages() []PageID { return w.pageIDs }

func (w *ChainWriter) setHeader(next PageID) {
	binary.LittleEndian.PutUint64(w.buf[0:8], uint64(next))
	binary.LittleEndian.PutUint16(w.buf[8:10], uint16(w.n))
}

// Close flushes the final page and returns the chain head (InvalidPage for
// an empty chain), the number of pages, and the number of records.
func (w *ChainWriter) Close() (head PageID, pages, count int, err error) {
	if w.closed {
		return w.head, w.pages, w.count, nil
	}
	w.closed = true
	if w.cur != InvalidPage {
		w.setHeader(InvalidPage)
		if err := w.p.Write(w.cur, w.buf); err != nil {
			return InvalidPage, 0, 0, err
		}
	}
	return w.head, w.pages, w.count, nil
}

// ScanChain reads a chain page by page, invoking fn for each record. fn
// returns false to stop the scan early (the standard "scan until out of
// range" pattern). ScanChain returns the number of page reads performed.
//
// Pages are read through a PageReader: a pool hands out its immutable
// frames (no copy, no allocation per page), and any other pager reads into
// one scratch buffer per scan. The per-record slice therefore aliases
// either a pool frame shared with every concurrent reader or a buffer the
// next page read overwrites: fn must neither retain it nor write into it.
func ScanChain(p Pager, recSize int, head PageID, fn func(rec []byte) bool) (pageReads int, err error) {
	if head == InvalidPage {
		return 0, nil
	}
	c := ChainCap(p.PageSize(), recSize)
	if recSize <= 0 || c < 1 {
		return 0, fmt.Errorf("%w: rec=%d page=%d", ErrRecordSize, recSize, p.PageSize())
	}
	r := NewPageReader(p)
	for id := head; id != InvalidPage; {
		buf, err := r.Read(id)
		if err != nil {
			return pageReads, err
		}
		pageReads++
		next := PageID(binary.LittleEndian.Uint64(buf[0:8]))
		n := int(binary.LittleEndian.Uint16(buf[8:10]))
		if n > c {
			return pageReads, fmt.Errorf("disk: corrupt chain page %d: count %d > cap %d: %w", id, n, c, ErrCorrupt)
		}
		for i := 0; i < n; i++ {
			// The capacity is capped at the record so an append to rec
			// reallocates instead of writing over its neighbour.
			end := chainHeader + (i+1)*recSize
			if !fn(buf[end-recSize : end : end]) {
				return pageReads, nil
			}
		}
		id = next
	}
	return pageReads, nil
}

// FreeChain releases every page of a chain.
func FreeChain(p Pager, head PageID) error {
	buf := make([]byte, p.PageSize())
	for id := head; id != InvalidPage; {
		if err := p.Read(id, buf); err != nil {
			return err
		}
		next := PageID(binary.LittleEndian.Uint64(buf[0:8]))
		if err := p.Free(id); err != nil {
			return err
		}
		id = next
	}
	return nil
}

// ChainPages returns the number of pages a chain of count records of recSize
// occupies — used by space accounting in tests.
func ChainPages(pageSize, recSize, count int) int {
	if count == 0 {
		return 0
	}
	c := ChainCap(pageSize, recSize)
	return (count + c - 1) / c
}

// WriteChain is a convenience that writes all records (flattened into recs,
// len(recs) a multiple of recSize) as a chain and returns its head.
func WriteChain(p Pager, recSize int, recs []byte) (PageID, int, error) {
	w, err := NewChainWriter(p, recSize)
	if err != nil {
		return InvalidPage, 0, err
	}
	for off := 0; off < len(recs); off += recSize {
		if err := w.Append(recs[off : off+recSize]); err != nil {
			return InvalidPage, 0, err
		}
	}
	head, pages, _, err := w.Close()
	return head, pages, err
}
