package engine

import (
	"sync"
	"sync/atomic"

	"pathcache/internal/disk"
)

// Prefetcher is the bounded async pipeline that warms the buffer pool ahead
// of a descent. Query paths that know the next pages of their cached path —
// the skeletal walker sees a node's external children as soon as the node is
// decoded — hand those page IDs to Prefetch; worker goroutines read them
// through the pool so that by the time the descent arrives the access is a
// pool hit.
//
// Accounting: prefetch reads run on the backend's shared pager, never on an
// operation's counted view, so they are invisible to per-op counters. The
// only per-op effect is the Reads/CacheHits split — a prefetched page the op
// would have read from the store becomes a zero-cost hit. The sum
// Reads+CacheHits (the pages an operation touches) is unchanged, which keeps
// the theorem-bound sentinels and the cross-layout I/O identities exact.
//
// The queue is a bounded hint channel: when it is full the hint is dropped,
// not queued or executed inline, so prefetch can never slow the foreground
// path down or distort its counters.
type Prefetcher struct {
	pager disk.Pager
	queue chan disk.PageID
	wg    sync.WaitGroup

	enqueued atomic.Int64
	dropped  atomic.Int64
}

// defaultPrefetchDepth bounds the hint queue when the config leaves it zero.
const defaultPrefetchDepth = 64

// newPrefetcher starts workers goroutines reading hints through p.
func newPrefetcher(p disk.Pager, workers, depth int) *Prefetcher {
	if depth <= 0 {
		depth = defaultPrefetchDepth
	}
	pf := &Prefetcher{pager: p, queue: make(chan disk.PageID, depth)}
	for i := 0; i < workers; i++ {
		pf.wg.Add(1)
		go pf.run()
	}
	return pf
}

func (pf *Prefetcher) run() {
	defer pf.wg.Done()
	// The worker only needs the pool fill, not the bytes: a PageReader
	// borrows the frame instead of copying it (and keeps one scratch
	// buffer when a wrapper hides the pool's views).
	r := disk.NewPageReader(pf.pager)
	for id := range pf.queue {
		// A failed prefetch is a no-op: the foreground read will surface
		// the error (or succeed) on its own.
		//pcvet:allow errwrapinjected -- best-effort warm-up; the foreground read re-performs the access and surfaces any fault
		_, _ = r.Read(id)
	}
}

// Prefetch enqueues a page hint, dropping it when the queue is full.
func (pf *Prefetcher) Prefetch(id disk.PageID) {
	select {
	case pf.queue <- id:
		pf.enqueued.Add(1)
	default:
		pf.dropped.Add(1)
	}
}

// Stats reports how many hints were accepted and dropped since start.
func (pf *Prefetcher) Stats() (enqueued, dropped int64) {
	return pf.enqueued.Load(), pf.dropped.Load()
}

// Close drains the queue and stops the workers. Must be called before the
// underlying store closes.
func (pf *Prefetcher) Close() {
	close(pf.queue)
	pf.wg.Wait()
}

// prefetchPager decorates an operation's counted pager with the Prefetch
// extension the skeletal walker probes for. Hints bypass the embedded
// counted pager entirely — they go to the shared prefetcher.
type prefetchPager struct {
	disk.Pager
	pf *Prefetcher
}

// Prefetch forwards the hint to the backend's prefetcher.
func (pp prefetchPager) Prefetch(id disk.PageID) { pp.pf.Prefetch(id) }

// prefetchViewPager is prefetchPager over a pager that lends its frames.
// Embedding disk.Pager promotes only the Pager methods, so the view method
// is forwarded explicitly; without it every pool+prefetch op would take
// the copying fallback of disk.ReadView.
type prefetchViewPager struct {
	prefetchPager
	v disk.PageViewer
}

// ReadView forwards to the wrapped pager's zero-copy read.
func (pp prefetchViewPager) ReadView(id disk.PageID) ([]byte, error) { return pp.v.ReadView(id) }

// withPrefetch wraps an op pager with the prefetch extension, keeping its
// zero-copy read when it has one.
func withPrefetch(p disk.Pager, pf *Prefetcher) disk.Pager {
	pp := prefetchPager{Pager: p, pf: pf}
	if v, ok := p.(disk.PageViewer); ok {
		return prefetchViewPager{prefetchPager: pp, v: v}
	}
	return pp
}
