// Package viewwrite_bad exercises pagerdiscipline's fourth family: stores
// into page views, which may be buffer pool frames shared by every
// concurrent reader of the page.
package viewwrite_bad

import (
	"encoding/binary"
	"slices"
	"sort"

	"pathcache/internal/disk"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// patchView writes into a disk.ReadView result every way the analyzer
// models.
func patchView(p disk.Pager, id disk.PageID, src []byte) error {
	v, err := disk.ReadView(p, id)
	if err != nil {
		return err
	}
	v[0] = 1                                  // want `write into a page view \(index assignment\)`
	v[1]++                                    // want `write into a page view \(index assignment\)`
	copy(v[8:], src)                          // want `write into a page view \(copy into it\)`
	binary.LittleEndian.PutUint64(v[16:], 42) // want `write into a page view \(binary PutUint64\)`
	hdr := v[:10]
	hdr[9] = 0 // want `write into a page view \(index assignment\)`
	clear(hdr) // want `write into a page view \(clear into it\)`
	return nil
}

// patchViewer writes into a PageViewer's and a PageReader's results.
func patchViewer(pv disk.PageViewer, p disk.Pager, id disk.PageID) error {
	v, err := pv.ReadView(id)
	if err != nil {
		return err
	}
	v[0] = 0 // want `write into a page view \(index assignment\)`
	r := disk.NewPageReader(p)
	page, err := r.Read(id)
	if err != nil {
		return err
	}
	slices.Reverse(page) // want `write into a page view \(sorted in place by slices\.Reverse\)`
	return nil
}

// patchPayload writes into skeletal node payloads, which alias the view
// the node was decoded from.
func patchPayload(w *skeletal.Walker, ref skeletal.NodeRef) error {
	n, err := w.Node(ref)
	if err != nil {
		return err
	}
	n.Payload[0] = 7 // want `write into a page view \(index assignment\)`
	pl := n.Payload
	binary.BigEndian.PutUint32(pl, 1) // want `write into a page view \(binary PutUint32\)`
	return nil
}

type byteOrder []byte

func (b byteOrder) Len() int           { return len(b) }
func (b byteOrder) Less(i, j int) bool { return b[i] < b[j] }
func (b byteOrder) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// patchRecords writes into ScanChain records. Passing a record to a sort
// also trips family 3: the analyzer cannot prove the callee keeps no alias.
func patchRecords(p disk.Pager, head disk.PageID) error {
	_, err := disk.ScanChain(p, record.PointSize, head, func(rec []byte) bool {
		rec[0] = 0                                            // want `write into a page view \(index assignment\)`
		sort.Sort(byteOrder(rec))                             // want `write into a page view \(sorted in place by sort\.Sort\)` `passed to sort\.Sort`
		sort.Slice(rec, func(i, j int) bool { return false }) // want `write into a page view \(sorted in place by sort\.Slice\)` `passed to sort\.Slice`
		return true
	})
	return err
}
