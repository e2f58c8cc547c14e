package btree

import (
	"fmt"
	"math/bits"

	"pathcache/internal/disk"
)

// This file is the zero-copy read path used by Search/Range on
// disk.LayoutEytzinger trees. It operates directly on the page bytes: pool
// frames borrowed through disk.PageReader (one scratch page buffer per
// operation on pool-less pagers), no node decoding, no []Entry
// allocation, and a branch-free descent — comparisons reduce to SETcc/CMOV
// index arithmetic instead of data-dependent branches.
//
// Keys are compared in order-preserving unsigned form (int64 with the sign
// bit flipped), so a composite (Key, Val) compare is two unsigned compares
// combined with AND/OR masks.

// signFlip maps int64 to order-preserving uint64.
const signFlip = 1 << 63

// b2i converts a comparison result to 0/1 without a branch (compiles to
// SETcc on amd64 and CSET on arm64).
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// rawEntryLess reports entry-at-off < (ku, val), with ku already sign
// flipped. Branch-free: both legs of the composite compare are evaluated.
func rawEntryLess(buf []byte, off int, ku, val uint64) int {
	sk := le64(buf[off:]) ^ signFlip
	sv := le64(buf[off+8:])
	return b2i(sk < ku) | (b2i(sk == ku) & b2i(sv < val))
}

// rawEntryGreater reports entry-at-off > (ku, val).
func rawEntryGreater(buf []byte, off int, ku, val uint64) int {
	sk := le64(buf[off:]) ^ signFlip
	sv := le64(buf[off+8:])
	return b2i(sk > ku) | (b2i(sk == ku) & b2i(sv > val))
}

// eytzLeafLower returns the 1-based Eytzinger slot of the first entry
// >= (ku, val) among n entries, or 0 when every entry is smaller. This is
// the classic branchless Eytzinger lower bound: descend accumulating the
// go-right bits in k, then strip the trailing ones.
func eytzLeafLower(buf []byte, n int, ku, val uint64) int {
	k := 1
	for k <= n {
		off := leafFixed + (k-1)*leafEntry
		k = 2*k + rawEntryLess(buf, off, ku, val)
	}
	return k >> (bits.TrailingZeros(^uint(k)) + 1)
}

// sortedLeafLower is the same query over a sorted-layout leaf: 0-based index
// of the first entry >= (ku, val), or n when none.
func sortedLeafLower(buf []byte, n int, ku, val uint64) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		off := leafFixed + mid*leafEntry
		if rawEntryLess(buf, off, ku, val) == 1 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// eytzSucc returns the 1-based slot holding the in-order successor of slot
// k in the complete binary tree on n nodes, or 0 when k is the maximum.
func eytzSucc(k, n int) int {
	if r := 2*k + 1; r <= n {
		for 2*r <= n {
			r *= 2
		}
		return r
	}
	for k > 1 && k&1 == 1 {
		k >>= 1
	}
	if k <= 1 {
		return 0
	}
	return k >> 1
}

// eytzMin returns the 1-based slot of the smallest entry (0 when empty).
func eytzMin(n int) int {
	if n == 0 {
		return 0
	}
	k := 1
	for 2*k <= n {
		k *= 2
	}
	return k
}

// rawChild picks the child page to descend into for (ku, val) directly from
// an internal node's bytes, dispatching on the node's recorded layout. The
// Eytzinger descent tracks the last separator it passed on the right — the
// in-order predecessor — whose stored pointer is exactly the child
// childIndex would select.
func rawChild(buf []byte, layout disk.Layout, n int, ku, val uint64) disk.PageID {
	pred := 0 // 1-based slot of the last separator <= (ku, val); 0 = none
	if layout == disk.LayoutEytzinger {
		k := 1
		for k <= n {
			off := intFixed + (k-1)*intEntry
			c := 1 - rawEntryGreater(buf, off, ku, val) // sep <= e
			pred += (k - pred) * c
			k = 2*k + c
		}
	} else {
		lo, hi := 0, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			off := intFixed + mid*intEntry
			if rawEntryGreater(buf, off, ku, val) == 0 { // sep <= e
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		pred = lo // slots are ranks under the sorted layout
	}
	if pred == 0 {
		return disk.PageID(le64(buf[hdrSize:]))
	}
	return disk.PageID(le64(buf[intFixed+(pred-1)*intEntry+16:]))
}

// rangeRaw is Range over the zero-copy path. It reads pages as pool views
// (or into one scratch buffer for the whole operation) and dispatches each
// node on its header layout byte, so it is also correct for sorted nodes
// (the descent is then a raw binary search instead of the branchless walk).
func (t *Tree) rangeRaw(lo, hi int64, fn func(key int64, val uint64) bool) error {
	ku := uint64(lo) ^ signFlip
	hku := uint64(hi) ^ signFlip
	const val = 0 // range start at Val 0: first entry with Key >= lo
	r := disk.NewPageReader(t.pager)
	id := t.root
	for {
		buf, err := r.Read(id)
		if err != nil {
			return err
		}
		kind, layout, count, err := checkHeader(buf, id)
		if err != nil {
			return err
		}
		if kind == kindLeaf {
			return scanLeavesRaw(&r, buf, layout, count, ku, hku, val, fn)
		}
		id = rawChild(buf, layout, count, ku, val)
	}
}

// scanLeavesRaw emits entries in [start, hi] from the leaf in buf onward,
// following the leaf chain through r. The first leaf starts at the in-order
// position of (ku, val); the Eytzinger iteration order is the arithmetic
// in-order successor walk.
func scanLeavesRaw(r *disk.PageReader, buf []byte, layout disk.Layout, count int, ku, hku, val uint64, fn func(key int64, val uint64) bool) error {
	atStart := true
	for {
		if layout == disk.LayoutEytzinger {
			k := eytzMin(count)
			if atStart {
				k = eytzLeafLower(buf, count, ku, val)
			}
			for k != 0 {
				off := leafFixed + (k-1)*leafEntry
				ek := le64(buf[off:]) ^ signFlip
				if ek > hku {
					return nil
				}
				if !fn(int64(ek^signFlip), le64(buf[off+8:])) {
					return nil
				}
				k = eytzSucc(k, count)
			}
		} else {
			i := 0
			if atStart {
				i = sortedLeafLower(buf, count, ku, val)
			}
			for ; i < count; i++ {
				off := leafFixed + i*leafEntry
				ek := le64(buf[off:]) ^ signFlip
				if ek > hku {
					return nil
				}
				if !fn(int64(ek^signFlip), le64(buf[off+8:])) {
					return nil
				}
			}
		}
		atStart = false
		next := disk.PageID(int64(le64(buf[hdrSize:])))
		if next == disk.InvalidPage {
			return nil
		}
		id := next
		var err error
		if buf, err = r.Read(id); err != nil {
			return err
		}
		kind, l, c, err := checkHeader(buf, id)
		if err != nil {
			return err
		}
		if kind != kindLeaf {
			return fmt.Errorf("btree: leaf chain reaches non-leaf node %d: %w", id, disk.ErrCorrupt)
		}
		layout, count = l, c
	}
}
