package disk

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// fillPage returns a page of size bytes all equal to v: any torn or
// overwritten view shows as a byte that differs from the first.
func fillPage(size int, v byte) []byte { return bytes.Repeat([]byte{v}, size) }

// uniform reports whether every byte of page equals v.
func uniform(page []byte, v byte) bool {
	for _, b := range page {
		if b != v {
			return false
		}
	}
	return true
}

// viewFixture is a store of n pages, page i filled with byte(i+1), under a
// pool of the given capacity.
func viewFixture(t *testing.T, n, capacity, shards int) (*Store, *BufferPool, []PageID) {
	t.Helper()
	s := MustStore(128)
	ids := make([]PageID, n)
	for i := range ids {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(id, fillPage(128, byte(i+1))); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	p, err := NewBufferPoolShards(s, capacity, shards)
	if err != nil {
		t.Fatal(err)
	}
	return s, p, ids
}

// TestReadViewOutlivesPoolEvents pins the view contract: a view taken from
// the pool keeps its bytes exactly through every event that drops or
// replaces its frame — a Write through the pool, Flush, eviction and Free —
// even when the store page is rewritten underneath.
func TestReadViewOutlivesPoolEvents(t *testing.T) {
	events := []struct {
		name string
		run  func(t *testing.T, s *Store, p *BufferPool, ids []PageID)
	}{
		{"Write", func(t *testing.T, _ *Store, p *BufferPool, ids []PageID) {
			if err := p.Write(ids[0], fillPage(128, 0xDB)); err != nil {
				t.Fatal(err)
			}
		}},
		{"Flush", func(t *testing.T, s *Store, p *BufferPool, ids []PageID) {
			if err := p.Write(ids[0], fillPage(128, 0xDB)); err != nil {
				t.Fatal(err)
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
		}},
		{"Eviction", func(t *testing.T, s *Store, p *BufferPool, ids []PageID) {
			for _, id := range ids[1:] {
				if _, err := p.ReadView(id); err != nil {
					t.Fatal(err)
				}
			}
			if p.Stats().Evictions == 0 {
				t.Fatal("expected the sweep to evict the viewed page")
			}
			if err := s.Write(ids[0], fillPage(128, 0xDB)); err != nil {
				t.Fatal(err)
			}
		}},
		{"Free", func(t *testing.T, s *Store, p *BufferPool, ids []PageID) {
			if err := p.Free(ids[0]); err != nil {
				t.Fatal(err)
			}
			id, err := p.Alloc() // the store hands the freed id straight back
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Write(id, fillPage(128, 0xDB)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, ev := range events {
		t.Run(ev.name, func(t *testing.T) {
			s, p, ids := viewFixture(t, 16, 4, 1)
			v, err := p.ReadView(ids[0])
			if err != nil {
				t.Fatal(err)
			}
			if !uniform(v, 1) {
				t.Fatalf("fresh view of page %d holds %v, want all 1", ids[0], v[:8])
			}
			ev.run(t, s, p, ids)
			if !uniform(v, 1) {
				t.Fatalf("view changed after %s: holds %v, want all 1", ev.name, v[:8])
			}
		})
	}
}

// TestPoolWriteCopiesOnWrite checks that a Write to a resident frame
// installs new bytes for later readers and leaves every earlier view, and
// the caller's source buffer, untouched.
func TestPoolWriteCopiesOnWrite(t *testing.T) {
	_, p, ids := viewFixture(t, 4, 8, 1)
	before, err := p.ReadView(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	src := fillPage(128, 0x55)
	if err := p.Write(ids[2], src); err != nil {
		t.Fatal(err)
	}
	src[0] = 0x66 // the pool must have copied src, not kept it
	after, err := p.ReadView(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	if !uniform(before, 3) {
		t.Fatalf("earlier view overwritten: %v", before[:8])
	}
	if !uniform(after, 0x55) {
		t.Fatalf("view after Write holds %v, want all 0x55", after[:8])
	}
	buf := make([]byte, 128)
	if err := p.Read(ids[2], buf); err != nil {
		t.Fatal(err)
	}
	if !uniform(buf, 0x55) {
		t.Fatalf("Read after Write holds %v, want all 0x55", buf[:8])
	}
	if st := p.Stats(); st.Misses != 1 || st.Hits != 3 || st.Evictions != 0 {
		t.Fatalf("stats %+v, want 1 miss (the first view) and 3 hits", st)
	}
}

// TestReadViewAccountingMatchesRead replays one trace of reads and writes
// under eviction pressure, reading through Read and through ReadView: the
// bytes returned, the pool stats, the op counter and the store counters
// must agree exactly.
func TestReadViewAccountingMatchesRead(t *testing.T) {
	type result struct {
		pages [][]byte
		pool  PoolStats
		op    Stats
		hits  int64
		store Stats
	}
	run := func(view bool) result {
		s, p, ids := viewFixture(t, 24, 8, 2)
		var c Counter
		op := WithCounter(p, &c)
		var res result
		for i := 0; i < 400; i++ {
			id := ids[(i*7)%len(ids)]
			if i%9 == 8 {
				if err := op.Write(id, fillPage(128, byte(i))); err != nil {
					t.Fatal(err)
				}
				continue
			}
			var page []byte
			if view {
				v, err := op.(PageViewer).ReadView(id)
				if err != nil {
					t.Fatal(err)
				}
				page = v
			} else {
				page = make([]byte, 128)
				if err := op.Read(id, page); err != nil {
					t.Fatal(err)
				}
			}
			res.pages = append(res.pages, page)
		}
		res.pool, res.op, res.hits, res.store = p.Stats(), c.Stats(), c.Hits(), s.Stats()
		return res
	}
	copied, viewed := run(false), run(true)
	if copied.pool != viewed.pool || copied.op != viewed.op || copied.hits != viewed.hits || copied.store != viewed.store {
		t.Fatalf("accounting differs:\nRead:     pool %+v op %v hits %d store %v\nReadView: pool %+v op %v hits %d store %v",
			copied.pool, copied.op, copied.hits, copied.store, viewed.pool, viewed.op, viewed.hits, viewed.store)
	}
	if copied.pool.Evictions == 0 {
		t.Fatal("trace should evict")
	}
	for i := range copied.pages {
		if !bytes.Equal(copied.pages[i], viewed.pages[i]) {
			t.Fatalf("access %d: Read returned %v, ReadView %v", i, copied.pages[i][:8], viewed.pages[i][:8])
		}
	}
}

// TestReadViewConcurrent runs readers and writers on one pool, once with
// the readers copying through Read and once borrowing through ReadView. No
// read may ever see a torn page or a view that changes under it, and the
// pool stats and summed op counters must be identical across the two runs.
// Writers rewrite resident pages only, so the no-eviction accounting is
// deterministic whatever the interleaving. Run with -race.
func TestReadViewConcurrent(t *testing.T) {
	const (
		pages   = 64
		hot     = 16 // pages 0..hot-1 are resident and rewritten
		readers = 4
		writers = 2
		rounds  = 300
	)
	type result struct {
		pool PoolStats
		op   Stats
		hits int64
	}
	run := func(view bool) result {
		_, p, ids := viewFixture(t, pages, 2*pages, 4)
		for _, id := range ids[:hot] {
			if _, err := p.ReadView(id); err != nil {
				t.Fatal(err)
			}
		}
		p.ResetStats()
		counters := make([]Counter, readers+writers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				op := WithCounter(p, &counters[r])
				buf := make([]byte, 128)
				for i := 0; i < rounds; i++ {
					id := ids[(r*13+i*5)%pages]
					page := buf
					if view {
						v, err := op.(PageViewer).ReadView(id)
						if err != nil {
							t.Error(err)
							return
						}
						page = v
					} else if err := op.Read(id, buf); err != nil {
						t.Error(err)
						return
					}
					first := page[0]
					if !uniform(page, first) {
						t.Errorf("page %d torn: %v", id, page[:8])
						return
					}
					if i%7 == 0 {
						// Let writers run (the same extra reads in both
						// runs), then check a view held still.
						scratch := make([]byte, 128)
						for j := 0; j < 3; j++ {
							if err := op.Read(ids[j], scratch); err != nil {
								t.Error(err)
								return
							}
						}
						if !uniform(page, first) {
							t.Errorf("view of page %d changed under its reader", id)
							return
						}
					}
				}
			}(r)
		}
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				op := WithCounter(p, &counters[readers+w])
				for i := 0; i < rounds; i++ {
					if err := op.Write(ids[(w+i)%hot], fillPage(128, byte(100+i%100))); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		var res result
		for i := range counters {
			cs := counters[i].Stats()
			res.op.Reads += cs.Reads
			res.op.Writes += cs.Writes
			res.hits += counters[i].Hits()
		}
		res.pool = p.Stats()
		return res
	}
	copied, viewed := run(false), run(true)
	if copied != viewed {
		t.Fatalf("Read run %+v != ReadView run %+v", copied, viewed)
	}
	if copied.pool.Misses != pages-hot || copied.op.Reads != pages-hot || copied.pool.Evictions != 0 {
		t.Fatalf("stats %+v, want %d misses and op reads, no evictions", copied, pages-hot)
	}
}

// TestReadViewFallback checks that pagers without frames never hand out
// shared bytes: ReadView goes through their Read, so injected faults,
// latency and transfer counts are never bypassed, and wrappers over a pool
// hide its views.
func TestReadViewFallback(t *testing.T) {
	s, p, ids := viewFixture(t, 4, 8, 1)
	var c Counter
	for _, pg := range []Pager{s, &SlowPager{Inner: p}, WithCounter(s, &c), NewFaultPager(p, 100)} {
		if _, ok := pg.(PageViewer); ok {
			t.Fatalf("%T offers views; only the pool's frames may be lent", pg)
		}
	}
	v, err := ReadView(WithCounter(s, &c), ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if !uniform(v, 2) || c.Stats().Reads != 1 {
		t.Fatalf("counted fallback view %v with %v, want page 2's bytes and one read", v[:8], c.Stats())
	}
	fp := NewFaultPager(p, 0)
	if _, err := ReadView(fp, ids[1]); !errors.Is(err, ErrInjected) {
		t.Fatalf("ReadView through a FaultPager over the pool: %v, want ErrInjected", err)
	}
	if _, ok := WithCounter(p, &c).(PageViewer); !ok {
		t.Fatal("the pool's counted op view must offer ReadView")
	}
}

// TestScanChainAllocs checks that a chain scan borrows pool frames (no
// allocation per page when warm) and keeps one scratch buffer per scan on
// a pool-less store, however many pages the chain spans.
func TestScanChainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := MustStore(128)
	recs := make([]byte, 8*200)
	head, pages, err := WriteChain(s, 8, recs)
	if err != nil {
		t.Fatal(err)
	}
	if pages < 10 {
		t.Fatalf("chain spans %d pages, want a long one", pages)
	}
	pool, err := NewBufferPool(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	count := func([]byte) bool { n++; return true }
	for _, tc := range []struct {
		name string
		p    Pager
		max  float64
	}{
		{"store", s, 1},
		{"warm pool", pool, 0},
	} {
		if _, err := ScanChain(tc.p, 8, head, count); err != nil { // warms the pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ScanChain(tc.p, 8, head, count); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: ScanChain over %d pages made %.0f allocations, want at most %.0f", tc.name, pages, allocs, tc.max)
		}
	}
}
