package engine

import (
	"strings"
	"sync"
	"testing"
	"time"

	"pathcache/internal/disk"
)

// TestPrefetchValidation covers checkPrefetch through both constructors:
// negative worker counts are rejected, and prefetch without a buffer pool
// is a configuration error (there is nothing to warm).
func TestPrefetchValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" means success
	}{
		{"negative workers", Config{PrefetchWorkers: -1, BufferPoolPages: 8}, "invalid PrefetchWorkers -1"},
		{"workers without pool", Config{PrefetchWorkers: 2}, "requires BufferPoolPages > 0"},
		{"workers with pool", Config{PrefetchWorkers: 2, BufferPoolPages: 8}, ""},
		{"zero workers no pool", Config{}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			be, err := New(tc.cfg)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("New(%+v) = %v, want success", tc.cfg, err)
				}
				if err := be.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				return
			}
			if err == nil {
				be.Close()
				t.Fatalf("New(%+v) succeeded, want error containing %q", tc.cfg, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New(%+v) = %q, want error containing %q", tc.cfg, err, tc.want)
			}
		})
	}
}

// TestPrefetchWarmsPool proves the pipeline's whole point: a page hinted
// to the prefetcher becomes a pool hit for the operation that later reads
// it — the op's counter sees a CacheHit, not a Read — while the hint
// itself never touches any op counter.
func TestPrefetchWarmsPool(t *testing.T) {
	be, err := New(Config{PageSize: 256, BufferPoolPages: 8, PrefetchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	id, err := be.Pager().Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	buf[0] = 0x42
	if err := be.Pager().Write(id, buf); err != nil {
		t.Fatal(err)
	}

	var ctr disk.Counter
	op := be.OpPager(&ctr)
	pf, ok := op.(interface{ Prefetch(disk.PageID) })
	if !ok {
		t.Fatalf("OpPager %T does not expose Prefetch with PrefetchWorkers set", op)
	}
	pf.Prefetch(id)

	// The hint is served by a background worker; wait for it to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if enq, _ := be.PrefetchStats(); enq == 1 {
			ctr.Reset()
			if err := op.Read(id, buf); err != nil {
				t.Fatal(err)
			}
			if ctr.Hits() == 1 && ctr.Stats().Reads == 0 {
				break // warmed: the foreground access was free
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("page never became a pool hit: reads=%d hits=%d", ctr.Stats().Reads, ctr.Hits())
		}
		time.Sleep(time.Millisecond)
	}
	if buf[0] != 0x42 {
		t.Fatalf("prefetched page content corrupted: %x", buf[0])
	}
	// The hint itself was attributed to no operation: the counter saw
	// exactly the one foreground access.
	if total := ctr.Stats().Reads + ctr.Hits(); total != 1 {
		t.Fatalf("op counter saw %d accesses, want 1 (prefetch must be unattributed)", total)
	}
}

// TestPrefetchDropWhenFull checks the bounded-queue contract directly on
// the Prefetcher: with no workers draining it, a queue of depth d accepts
// exactly d hints and drops the rest — it never blocks the caller.
func TestPrefetchDropWhenFull(t *testing.T) {
	s := disk.MustStore(256)
	pf := newPrefetcher(s, 0, 4) // no workers: nothing drains the queue
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			pf.Prefetch(disk.PageID(i))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Prefetch blocked on a full queue")
	}
	enq, dropped := pf.Stats()
	if enq != 4 || dropped != 6 {
		t.Fatalf("Stats() = (%d, %d), want (4, 6)", enq, dropped)
	}
	pf.Close()
}

// TestPrefetchCloseDrains checks Close semantics: it waits for the
// workers, and hints already queued are still served before shutdown.
// Concurrent hinting during Close must not panic the workers.
func TestPrefetchCloseDrains(t *testing.T) {
	s := disk.MustStore(256)
	var ids []disk.PageID
	buf := make([]byte, 256)
	for i := 0; i < 16; i++ {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	pf := newPrefetcher(s, 2, 32)
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id disk.PageID) {
			defer wg.Done()
			pf.Prefetch(id)
		}(id)
	}
	wg.Wait()
	pf.Close() // must not return before queued hints are processed
	enq, dropped := pf.Stats()
	if enq+dropped != int64(len(ids)) {
		t.Fatalf("Stats() = (%d, %d), want sum %d", enq, dropped, len(ids))
	}
	if got := s.Stats().Reads; got != enq {
		t.Fatalf("store saw %d reads after Close, want %d (every accepted hint served)", got, enq)
	}
}

// TestPrefetchOpPagerKeepsViews checks that the prefetch decorator forwards
// the pool op view's zero-copy read, with the op's accounting, and hides it
// when a wrapper already hid the pool: a pool+prefetch store keeps the
// fast path, and a wrapped one keeps its wrapper's Read.
func TestPrefetchOpPagerKeepsViews(t *testing.T) {
	be, err := New(Config{PageSize: 256, BufferPoolPages: 8, PrefetchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	id, err := be.Pager().Alloc()
	if err != nil {
		t.Fatal(err)
	}
	var ctr disk.Counter
	op := be.OpPager(&ctr)
	if _, ok := op.(interface{ Prefetch(disk.PageID) }); !ok {
		t.Fatalf("OpPager %T lost Prefetch", op)
	}
	v, ok := op.(disk.PageViewer)
	if !ok {
		t.Fatalf("OpPager %T over a pool hides ReadView", op)
	}
	for i := 0; i < 2; i++ {
		if _, err := v.ReadView(id); err != nil {
			t.Fatal(err)
		}
	}
	// Alloc does not bring the page into the pool: the first view misses,
	// the second hits, both on the op's counter.
	if ctr.Stats().Reads != 1 || ctr.Hits() != 1 {
		t.Fatalf("two views counted reads=%d hits=%d, want 1 and 1", ctr.Stats().Reads, ctr.Hits())
	}

	wrapped, err := New(Config{PageSize: 256, BufferPoolPages: 8, PrefetchWorkers: 1,
		WrapPager: func(p disk.Pager) disk.Pager { return &disk.SlowPager{Inner: p} }})
	if err != nil {
		t.Fatal(err)
	}
	defer wrapped.Close()
	if _, ok := wrapped.OpPager(&ctr).(disk.PageViewer); ok {
		t.Fatal("OpPager offers views through a wrapper that only exposes Read")
	}
}
