package disk

// PageViewer is implemented by pagers that can hand out a page's bytes
// without copying them: the BufferPool and its per-operation counted views.
// A view returned by ReadView is the pool frame itself. Frames are
// immutable: a pool Write installs a new frame slice instead of writing
// into the old one, and eviction, Free and Flush drop frames without ever
// reusing their buffers. So a view keeps its bytes for as long as anyone
// holds it, and the garbage collector frees it after the last holder lets
// go; no pin or release is needed.
//
// Views are shared by every reader of the page and must never be written:
// a store into one corrupts every concurrent query that reads the page.
// pcvet's pagerdiscipline analyzer reports such writes.
//
// ReadView performs exactly the accounting Read performs: a hit, miss,
// eviction or Counter charge for ReadView is the one Read would have made.
type PageViewer interface {
	ReadView(id PageID) ([]byte, error)
}

// ReadView returns the contents of page id. When p is a PageViewer the
// result is its shared, immutable view (no copy, no allocation on a pool
// hit); otherwise it is a fresh buffer filled by p.Read, so wrappers that
// inject faults or latency, check checksums or count transfers are never
// bypassed. Either way the caller must not write into the result.
func ReadView(p Pager, id PageID) ([]byte, error) {
	r := NewPageReader(p)
	return r.Read(id)
}

// PageReader reads a sequence of pages for one operation, as views where
// the pager offers them and through one reused scratch buffer where it does
// not. A scan over k pages of a pool-less store therefore allocates one
// page buffer, not k. The bytes a Read returns are valid until the next
// Read on the same PageReader (on the fallback path the scratch buffer is
// overwritten); they must never be written. The zero value is not usable;
// call NewPageReader.
type PageReader struct {
	p       Pager
	v       PageViewer // nil when p has no frames to lend
	scratch []byte
}

// NewPageReader prepares a reader over p.
func NewPageReader(p Pager) PageReader {
	v, _ := p.(PageViewer)
	return PageReader{p: p, v: v}
}

// Read returns page id's contents: a view of the pager's frame, or the
// scratch buffer filled by p.Read.
func (r *PageReader) Read(id PageID) ([]byte, error) {
	if r.v != nil {
		return r.v.ReadView(id)
	}
	if r.scratch == nil {
		r.scratch = make([]byte, r.p.PageSize())
	}
	if err := r.p.Read(id, r.scratch); err != nil {
		return nil, err
	}
	return r.scratch, nil
}
