package pathcache_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"pathcache"
)

// warmTwoSided builds a 2-sided Segmented index whose buffer pool holds
// every page, warms the pool with one pass of qs, and returns it: the
// configuration of the cached CPU path, where every page access is a pool
// hit.
func warmTwoSided(tb testing.TB, n int, qs []pathcache.TwoSidedQuery) *pathcache.TwoSidedIndex {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	pts := make([]pathcache.Point, n)
	for i := range pts {
		pts[i] = pathcache.Point{X: rng.Int63n(1 << 30), Y: rng.Int63n(1 << 30), ID: uint64(i)}
	}
	ix, err := pathcache.NewTwoSidedIndex(pts, pathcache.SchemeSegmented,
		&pathcache.Options{PageSize: 4096, BufferPoolPages: 1 << 14})
	if err != nil {
		tb.Fatal(err)
	}
	for _, q := range qs {
		if _, _, err := ix.QueryProfile(q.A, q.B); err != nil {
			tb.Fatal(err)
		}
	}
	return ix
}

// hyperbolaQueries returns k corners spread log-uniformly along the curve
// (1-a)(1-b) = t/n of the unit square scaled to [0, 2^30), so every query
// reports about t of n uniform points wherever it lands.
func hyperbolaQueries(k, t, n int, seed int64) []pathcache.TwoSidedQuery {
	rng := rand.New(rand.NewSource(seed))
	r := float64(t) / float64(n)
	qs := make([]pathcache.TwoSidedQuery, k)
	for i := range qs {
		v := rng.Float64()
		fa, fb := 1-math.Pow(r, v), 1-math.Pow(r, 1-v)
		qs[i] = pathcache.TwoSidedQuery{A: int64(fa * (1 << 30)), B: int64(fb * (1 << 30))}
	}
	return qs
}

// TestWarmQueryAllocs guards the zero-copy read path: a warm-pool 2-sided
// query borrows pool frames instead of copying each path and list page
// into a fresh page buffer. The guard counts page-sized allocations (the
// runtime's size classes of at least one page, plus large objects), which
// is what a copying read makes for every page it reads: a query touching
// ~4 pages then makes several per op. The answers of ~26 points, the
// query's other allocations, stay far below a page, so they cannot trip
// it, however their sizes drift.
func TestWarmQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race test step")
	}
	const pageSize = 4096
	qs := hyperbolaQueries(64, 26, 50_000, 11)
	ix := warmTwoSided(t, 50_000, qs)
	i := 0
	var touched int64
	run := func() {
		q := qs[i%len(qs)]
		i++
		_, prof, err := ix.QueryProfile(q.A, q.B)
		if err != nil {
			t.Fatal(err)
		}
		if prof.Reads != 0 {
			t.Fatalf("query (%d, %d) read %d pages from the store; the pool should hold every page", q.A, q.B, prof.Reads)
		}
		touched += prof.CacheHits
	}
	const runs = 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, run)
	runtime.ReadMemStats(&after)
	ops := float64(runs + 1) // AllocsPerRun adds one warm-up call
	bytesPerOp := float64(after.TotalAlloc-before.TotalAlloc) / ops
	pageAllocs := pageSizedMallocs(&after, pageSize) - pageSizedMallocs(&before, pageSize)
	t.Logf("warm 2-sided query: %.1f allocs/op, %.0f B/op, %.2f page-sized allocs/op, %.2f pages touched/op",
		allocs, bytesPerOp, float64(pageAllocs)/ops, float64(touched)/ops)
	// A copying read path makes one page-sized allocation per page read, or
	// per chain scan where a scan reuses one buffer: at least one per op.
	if float64(pageAllocs)/ops >= 0.5 {
		t.Fatalf("warm query makes %.2f page-sized allocations per op: a page read is copying instead of borrowing the pool frame", float64(pageAllocs)/ops)
	}
}

// pageSizedMallocs counts the heap allocations of at least pageSize bytes
// recorded in ms: those in size classes that hold pageSize or more, plus the
// large objects that no size class holds.
func pageSizedMallocs(ms *runtime.MemStats, pageSize uint32) uint64 {
	var n, classed uint64
	for _, c := range ms.BySize {
		classed += c.Mallocs
		if c.Size >= pageSize {
			n += c.Mallocs
		}
	}
	return n + ms.Mallocs - classed
}

// BenchmarkWarmTwoSidedQuery times the cached CPU path the allocation guard
// covers: ~26-result 2-sided Segmented queries against a pool holding every
// page.
func BenchmarkWarmTwoSidedQuery(b *testing.B) {
	qs := hyperbolaQueries(1024, 26, 50_000, 11)
	ix := warmTwoSided(b, 50_000, qs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, _, err := ix.QueryProfile(q.A, q.B); err != nil {
			b.Fatal(err)
		}
	}
}
