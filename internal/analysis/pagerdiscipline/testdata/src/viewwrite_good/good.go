// Package viewwrite_good exercises the sanctioned ways to change page
// bytes: copy a view into a buffer of your own, or read with the copying
// Pager.Read, and write that.
package viewwrite_good

import (
	"encoding/binary"
	"sort"

	"pathcache/internal/disk"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// rewrite copies the view, patches the copy and writes it back.
func rewrite(p disk.Pager, id disk.PageID) error {
	v, err := disk.ReadView(p, id)
	if err != nil {
		return err
	}
	own := append([]byte(nil), v...)
	own[0] = 1
	binary.LittleEndian.PutUint64(own[8:], binary.LittleEndian.Uint64(v[8:])+1)
	return p.Write(id, own)
}

// readModifyWrite uses the copying read: the buffer is the caller's.
func readModifyWrite(p disk.Pager, id disk.PageID) error {
	buf := make([]byte, p.PageSize())
	if err := p.Read(id, buf); err != nil {
		return err
	}
	buf[0]++
	copy(buf[8:], buf[:8])
	return p.Write(id, buf)
}

// payloadCopy decodes from a payload and sorts a copy of it.
func payloadCopy(w *skeletal.Walker, ref skeletal.NodeRef) ([]byte, uint64, error) {
	n, err := w.Node(ref)
	if err != nil {
		return nil, 0, err
	}
	dst := make([]byte, len(n.Payload))
	copy(dst, n.Payload) // the view is the source, not the destination
	sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
	return dst, binary.LittleEndian.Uint64(n.Payload), nil
}

// collect decodes records by value and keeps its own slice.
func collect(p disk.Pager, head disk.PageID) ([]record.Point, error) {
	var out []record.Point
	_, err := disk.ScanChain(p, record.PointSize, head, func(rec []byte) bool {
		out = append(out, record.DecodePoint(rec))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].X < out[j].X })
	return out, err
}
