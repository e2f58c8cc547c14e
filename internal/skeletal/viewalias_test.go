package skeletal

import (
	"encoding/binary"
	"testing"

	"pathcache/internal/disk"
)

// TestViewAliasSurvivesEviction pins down the zero-copy contract the query
// layers rely on when they retain Node.Payload without a defensive copy:
// a View's bytes are immutable — a pool frame that the pool never writes
// again, or a private buffer — so a payload alias stays valid after the
// underlying page has been evicted from the buffer pool, reused for other
// data, rewritten through the pool while resident (copy on write), and
// overwritten in the store. Runs under both layouts, since the slot a
// node's bytes live in differs between them, and under a pool small enough
// to evict every path page and one large enough that every rewrite hits a
// resident frame the retained payloads alias.
func TestViewAliasSurvivesEviction(t *testing.T) {
	for _, layout := range []disk.Layout{disk.LayoutSorted, disk.LayoutEytzinger} {
		t.Run(layout.String(), func(t *testing.T) {
			for _, capacity := range []int{2, 1024} {
				name := "evicting"
				if capacity > 2 {
					name = "resident"
				}
				t.Run(name, func(t *testing.T) { checkViewAliases(t, layout, capacity) })
			}
		})
	}
}

// checkViewAliases retains path nodes from descents through a pool of the
// given capacity, then thrashes, rewrites and overwrites every tree page and
// checks each retained payload still decodes to its node's key.
func checkViewAliases(t *testing.T, layout disk.Layout, capacity int) {
	const pageSize = 256
	s := disk.MustStore(pageSize)
	keys := make([]int64, 300)
	for i := range keys {
		keys[i] = int64(i) * 2
	}
	tr, err := BuildLayout(s, buildBST(keys), 8, layout)
	if err != nil {
		t.Fatal(err)
	}

	// Capacity 2: any two descents evict each other. Capacity 1024:
	// nothing is ever evicted.
	pool, err := disk.NewBufferPoolShards(s, capacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	pooled := tr.WithPager(pool)

	// Descend to several targets, retaining the path nodes (whose
	// payloads alias the walkers' view buffers).
	var retained []Node
	for _, target := range []int64{0, 150, 298, 599} {
		path, err := pooled.Descend(func(n Node) Dir {
			switch {
			case n.Key == target:
				return Stop
			case target < n.Key:
				return Left
			default:
				return Right
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		retained = append(retained, path...)
	}

	// Thrash the pool (evicting every retained node's page when it
	// is small), then overwrite every tree page through the pool and
	// in the raw store. If any retained payload aliased a frame the
	// pool wrote into, or shared store memory, it would now read
	// 0xDB garbage.
	junk := make([]byte, pageSize)
	for i := 0; i < 64; i++ {
		id, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Write(id, junk); err != nil {
			t.Fatal(err)
		}
		if err := pool.Read(id, junk); err != nil {
			t.Fatal(err)
		}
	}
	for j := range junk {
		junk[j] = 0xDB
	}
	for _, id := range tr.pages {
		if err := pool.Write(id, junk); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(id, junk); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}

	if len(retained) == 0 {
		t.Fatal("no nodes retained")
	}
	for _, n := range retained {
		if got := int64(binary.LittleEndian.Uint64(n.Payload)); got != n.Key {
			t.Fatalf("retained payload of node %v decodes to %d, want key %d (alias invalidated)",
				n.Ref, got, n.Key)
		}
	}
}
