package disk

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// BenchmarkPoolParallel measures warm-cache read throughput through the
// sharded pool as reader concurrency grows, over a simulated device with
// per-page read latency (hits free, misses block). One benchmark iteration
// replays the whole trace, partitioned worker w -> accesses w, w+W, ....
// The interesting comparison is time/op across the workers=1..8
// sub-benchmarks: misses overlap, so more workers means proportionally less
// wall-clock per batch until shard contention bites.
func BenchmarkPoolParallel(b *testing.B) {
	const (
		pageSize = 512
		nPages   = 256
		capacity = 128
		length   = 1024
	)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := MustStore(pageSize)
			buf := make([]byte, pageSize)
			ids := make([]PageID, nPages)
			for i := range ids {
				id, err := s.Alloc()
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = id
			}
			slow := &SlowPager{Inner: s, ReadDelay: 50 * time.Microsecond}
			p, err := NewBufferPool(slow, capacity)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			trace := make([]PageID, length)
			for i := range trace {
				trace[i] = ids[rng.Intn(nPages)]
			}
			// Warm pass so every measured pass sees the steady state.
			for _, id := range trace {
				if err := p.Read(id, buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						buf := make([]byte, pageSize)
						for j := g; j < len(trace); j += workers {
							if err := p.Read(trace[j], buf); err != nil {
								b.Error(err)
								return
							}
						}
					}(g)
				}
				wg.Wait()
			}
			st := p.Stats()
			total := st.Hits + st.Misses
			if total > 0 {
				b.ReportMetric(float64(st.Hits)/float64(total)*100, "hit%")
			}
		})
	}
}

// warmPoolTrace builds a 4 KiB-page store of nPages pages under a pool that
// holds all of them, warms every page, and returns the pool with a random
// access trace: the pool-hit layer of a warm query in isolation.
func warmPoolTrace(b *testing.B) (*BufferPool, []PageID) {
	const (
		pageSize = 4096
		nPages   = 1024
	)
	s := MustStore(pageSize)
	pool, err := NewBufferPool(s, nPages)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]PageID, nPages)
	for i := range ids {
		if ids[i], err = s.Alloc(); err != nil {
			b.Fatal(err)
		}
		if _, err := pool.ReadView(ids[i]); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	trace := make([]PageID, 4096)
	for i := range trace {
		trace[i] = ids[rng.Intn(nPages)]
	}
	return pool, trace
}

// BenchmarkPoolRead is one warm pool hit through the copying Read: latch,
// LRU bump and a 4 KiB copy into the caller's buffer.
func BenchmarkPoolRead(b *testing.B) {
	pool, trace := warmPoolTrace(b)
	buf := make([]byte, pool.PageSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pool.Read(trace[i%len(trace)], buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolReadView is the same hit through ReadView: latch and LRU bump
// only; the frame itself is returned.
func BenchmarkPoolReadView(b *testing.B) {
	pool, trace := warmPoolTrace(b)
	var sink byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := pool.ReadView(trace[i%len(trace)])
		if err != nil {
			b.Fatal(err)
		}
		sink ^= v[0]
	}
	_ = sink
}
