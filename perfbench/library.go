package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pathcache"
	"pathcache/internal/disk"
	"pathcache/internal/inmem"
	"pathcache/internal/record"
)

// The two library workloads call the public index API in-process, each
// caller taking a Handle.Acquire per operation as a server would.
//
// lookup-hot is the cached CPU path: a 2-sided Theorem 3.2 index whose
// buffer pool holds every page, queried with ~26-result corners, so
// descent, the pool-hit copy, the op seam and allocation do almost all the
// work and the store is never read.
//
// scan-cold is the output-heavy path: a 3-sided index over 200 times more
// pages than its pool holds, queried with ~2,000-result windows, so store
// reads, page checksums, output chains and result materialization dominate.
// The index file sits in the operating system's page cache, so a store read
// is a pread plus a CRC check, not a device access.

const pageSize = 4096

// libLimitUs is the read p99 and backlog limit of a passing ladder rung on
// the library workloads. Their p99 under an open loop is set by GC pauses
// (1-5 ms) and by host hiccups of tens of milliseconds; the limit sits
// above both, so the ladder stops at lost capacity rather than at a stray
// pause. With rungs of a 48th of the run (0.25 s at 12 s), a rung fails
// once the offered rate exceeds the capacity by about 40%, so the rungs at
// 1.04 and 1.24 times the anchor pass and set max_ok_rate_ops_s.
const libLimitUs = 100_000

// libRungShare is a ladder rung's length as a share of the run.
const libRungShare = 48

type libSpec struct {
	name      string
	n         int
	poolPages int
	build     func(pts []pathcache.Point, opts *pathcache.Options) (pathcache.Index, error)
	query     func(ix pathcache.Index, q query) ([]pathcache.Point, pathcache.IOProfile, error)
	gen       func(rng *rand.Rand) query
	// warm readies the pool after the build, as part of set-up.
	warm   func(s *libStore, rng *rand.Rand) error
	latCap int // per-caller latency buffer size for the closed loop
}

var lookupHot = &libSpec{
	name:      "lookup-hot",
	n:         500_000,
	poolPages: 32_768, // 128 MiB: larger than the ~25k-page index
	build: func(pts []pathcache.Point, opts *pathcache.Options) (pathcache.Index, error) {
		return pathcache.NewTwoSidedIndex(pts, pathcache.SchemeSegmented, opts)
	},
	query: func(ix pathcache.Index, q query) ([]pathcache.Point, pathcache.IOProfile, error) {
		return ix.(*pathcache.TwoSidedIndex).QueryProfile(q.A1, q.B)
	},
	gen:    newHyperbola(26, 500_000).next,
	warm:   sweepPool,
	latCap: 200_000,
}

var scanCold = &libSpec{
	name:      "scan-cold",
	n:         500_000,
	poolPages: 256, // 1 MiB against a ~226 MB index
	build: func(pts []pathcache.Point, opts *pathcache.Options) (pathcache.Index, error) {
		return pathcache.NewThreeSidedIndex(pts, opts)
	},
	query: func(ix pathcache.Index, q query) ([]pathcache.Point, pathcache.IOProfile, error) {
		return ix.(*pathcache.ThreeSidedIndex).QueryProfile(q.A1, q.A2, q.B)
	},
	gen:    newXWindow(0.01, 0.4).next, // 5,000 points per window, 40% above the cut
	warm:   warmQueries(256),
	latCap: 10_000,
}

// libStore is one built index with its handle.
type libStore struct {
	spec     *libSpec
	path     string
	ix       pathcache.Index
	h        *pathcache.Handle
	pool     disk.Pager // the buffer pool under any timing wrapper
	buildDur time.Duration
	setupDur time.Duration
}

// sweepPool reads every page through the pool once, so a pool larger than
// the index holds all of it before timing starts.
func sweepPool(s *libStore, _ *rand.Rand) error {
	buf := make([]byte, pageSize)
	for id := 0; id < s.ix.Stats().Pages; id++ {
		// A static build frees no pages, so every id below the live count
		// is readable.
		if err := s.pool.Read(disk.PageID(id), buf); err != nil {
			return fmt.Errorf("warming page %d: %w", id, err)
		}
	}
	return nil
}

// warmQueries runs k queries so a small pool holds the steady-state set of
// upper path pages.
func warmQueries(k int) func(s *libStore, rng *rand.Rand) error {
	return func(s *libStore, rng *rand.Rand) error {
		for i := 0; i < k; i++ {
			if _, _, err := s.spec.query(s.ix, s.spec.gen(rng)); err != nil {
				return fmt.Errorf("warm query: %w", err)
			}
		}
		return nil
	}
}

// libTrace is the instrumentation of a traced store.
type libTrace struct {
	fetch  fetchStats
	tracer *opTracer
}

// open builds the index under dir (set-up: build plus warm) and wraps it
// in a handle. tr, when set, instruments the store.
func (s *libSpec) open(dir string, rep int, pts []pathcache.Point, seed int64, tr *libTrace) (*libStore, error) {
	st := &libStore{spec: s, path: filepath.Join(dir, fmt.Sprintf("%s-%d.pc", s.name, rep))}
	opts := &pathcache.Options{
		PageSize:        pageSize,
		BufferPoolPages: s.poolPages,
		Path:            st.path,
		WrapPager: func(p disk.Pager) disk.Pager {
			st.pool = p
			if tr != nil {
				return timingPager{Pager: p, st: &tr.fetch}
			}
			return p
		},
	}
	if tr != nil {
		opts.Tracer = tr.tracer
	}
	t0 := time.Now()
	ix, err := s.build(pts, opts)
	if err != nil {
		os.Remove(st.path)
		return nil, fmt.Errorf("%s: build: %w", s.name, err)
	}
	st.buildDur = time.Since(t0)
	st.ix = ix
	if err := s.warm(st, newRand(seed, slotWarm+rep)); err != nil {
		st.close()
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	st.setupDur = time.Since(t0)
	st.h = pathcache.NewHandle("", ix)
	if tr != nil {
		// Set-up I/O is not the workload's.
		tr.fetch.reset()
		tr.tracer.reset()
	}
	return st, nil
}

// close releases the index and removes its file, reporting the store's
// page writes over its life (the build, flushed at close).
func (st *libStore) close() (writes int64, err error) {
	if st.h != nil {
		err = st.h.Close()
	} else {
		err = st.ix.Close()
	}
	writes = st.ix.Stats().Writes
	if rerr := os.Remove(st.path); err == nil {
		err = rerr
	}
	return writes, err
}

// Answer checking: a sample of operations keeps its query and a digest of
// its answer; after the timed interval they are checked against the
// in-memory priority search tree.
const (
	sampleEvery = 16
	maxSamples  = 20_000 // per caller and phase
)

type libSample struct {
	q      query
	n      int
	digest uint64
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pointHash is order-independent under summation.
func pointHash(x, y int64, id uint64) uint64 {
	return mix64(id ^ mix64(uint64(x)) ^ mix64(uint64(y)+0x9e3779b97f4a7c15))
}

func digest(pts []pathcache.Point) (d uint64) {
	for _, p := range pts {
		d += pointHash(p.X, p.Y, p.ID)
	}
	return d
}

// ioSums totals the IOProfiles of a phase's reads.
type ioSums struct {
	ops, reads, hits, path, list, useful, wasteful int64
	ratioSum, ratioMax                             float64
}

func (s *ioSums) add(p pathcache.IOProfile) {
	s.ops++
	s.reads += p.Reads
	s.hits += p.CacheHits
	s.path += int64(p.PathPages)
	s.list += int64(p.ListPages)
	s.useful += int64(p.UsefulIOs)
	s.wasteful += int64(p.WastefulIOs)
	if p.Bound > 0 {
		// Page accesses, not store reads, against the theorem bound: the
		// ratio then does not depend on what the pool absorbed.
		r := float64(p.Reads+p.CacheHits) / p.Bound
		s.ratioSum += r
		s.ratioMax = max(s.ratioMax, r)
	}
}

func (s *ioSums) merge(o ioSums) {
	s.ops += o.ops
	s.reads += o.reads
	s.hits += o.hits
	s.path += o.path
	s.list += o.list
	s.useful += o.useful
	s.wasteful += o.wasteful
	s.ratioSum += o.ratioSum
	s.ratioMax = max(s.ratioMax, o.ratioMax)
}

func (s ioSums) per(v int64) float64 { return float64(v) / float64(max(s.ops, 1)) }

// libCaller is one caller's state for one phase.
type libCaller struct {
	id      int
	rng     *rand.Rand
	io      ioSums
	samples []libSample
	ops     uint64
	// Traced phases only: self time of the generator (drawing the query,
	// recording the answer), the handle (acquire plus release) and the API
	// call, each timed on its own.
	traced                bool
	loadgen, handle, call time.Duration
}

// libRun drives one built store.
type libRun struct {
	spec  *libSpec
	st    *libStore
	seed  int64
	cs    []*libCaller
	spans *spanLog
}

func (r *libRun) do(c int, _ time.Time) (bool, error) {
	cs := r.cs[c]
	var t0, t1, t2, t3, t4 time.Time
	if cs.traced {
		t0 = time.Now()
	}
	q := r.spec.gen(cs.rng)
	if cs.traced {
		t1 = time.Now()
	}
	ix, release, err := r.st.h.Acquire()
	if err != nil {
		return false, err
	}
	if cs.traced {
		t2 = time.Now()
	}
	pts, prof, err := r.spec.query(ix, q)
	if cs.traced {
		t3 = time.Now()
	}
	if rerr := release(); err == nil {
		err = rerr
	}
	if cs.traced {
		t4 = time.Now()
		cs.handle += t2.Sub(t1) + t4.Sub(t3)
		cs.call += t3.Sub(t2)
		if cs.ops%spanEvery == 0 {
			id := uint64(cs.id)<<40 | cs.ops
			r.spans.add(
				span{Layer: "loadgen.op", ID: id, Start: t1, End: t4},
				span{Layer: "handle.acquire", Parent: "loadgen.op", ID: id, Start: t1, End: t2},
				span{Layer: "api.query", Parent: "loadgen.op", ID: id, Start: t2, End: t3},
				span{Layer: "handle.release", Parent: "loadgen.op", ID: id, Start: t3, End: t4},
			)
		}
	}
	if err != nil {
		return false, err
	}
	cs.io.add(prof)
	if cs.ops%sampleEvery == 0 && len(cs.samples) < maxSamples {
		cs.samples = append(cs.samples, libSample{q: q, n: len(pts), digest: digest(pts)})
	}
	cs.ops++
	if cs.traced {
		cs.loadgen += t1.Sub(t0) + time.Since(t4)
	}
	return false, nil
}

// libPhase is the outcome of one phase against a library store.
type libPhase struct {
	phase
	io                    ioSums
	samples               []libSample
	loadgen, handle, call time.Duration
}

// run drives one phase: closed loop when rate <= 0.
func (r *libRun) run(idx int, dur time.Duration, rate float64, traced bool) libPhase {
	r.cs = make([]*libCaller, callers)
	for c := range r.cs {
		r.cs[c] = &libCaller{id: c, rng: newRand(r.seed, slotInputs+8*idx+c), traced: traced}
	}
	capHint := r.spec.latCap
	if rate > 0 {
		capHint = int(rate*dur.Seconds()/callers*1.5) + 64
	}
	p := runPhase(dur, rate, newRand(r.seed, slotSchedule+idx), capHint, r.do)
	out := libPhase{phase: p}
	for _, cs := range r.cs {
		out.io.merge(cs.io)
		out.samples = append(out.samples, cs.samples...)
		out.loadgen += cs.loadgen
		out.handle += cs.handle
		out.call += cs.call
	}
	return out
}

// checkSamples recomputes every sampled answer with the in-memory oracle
// and returns how many disagree.
func checkSamples(pts []pathcache.Point, samples []libSample) int {
	rec := make([]record.Point, len(pts))
	for i, p := range pts {
		rec[i] = record.Point(p)
	}
	pst := inmem.NewPST(rec)
	wrong := 0
	for _, s := range samples {
		want := pst.ThreeSided(s.q.A1, s.q.A2, s.q.B)
		var d uint64
		for _, p := range want {
			d += pointHash(p.X, p.Y, p.ID)
		}
		if len(want) != s.n || d != s.digest {
			wrong++
		}
	}
	return wrong
}

// setupReps is how many times a run sets its store up; setup_s is the
// median.
const setupReps = 3

// windowsPerSetup is how many closed-loop windows follow each set-up.
const windowsPerSetup = 3

// windowShare is the percentage of the run the closed-loop windows take;
// the ladders take most of the rest.
const windowShare = 60

func (s *libSpec) runWorkload(cfg runCfg) (*outcome, error) {
	pts := uniformPoints(s.n, cfg.seed)
	if cfg.trace {
		return s.runTraced(cfg, pts)
	}
	oc := newOutcome()
	var setups, buildUs, amps []float64
	var st *libStore
	closeStore := func() error {
		w, err := st.close()
		amps = append(amps, float64(w)*pageSize/(float64(s.n)*recordBytes))
		return err
	}
	// Each set-up is followed by its share of the closed loop, run as
	// windows, and then by a ladder anchored at those windows' throughput;
	// the results are medians over windows and over ladders. Neighbours on
	// the host move memory-bound throughput by 10-20% over tens of seconds;
	// windows spread over the whole run, each set-up with a fresh heap, keep
	// one slow stretch from setting the result.
	r := &libRun{spec: s, seed: cfg.seed}
	window := cfg.measure() * windowShare / (setupReps * windowsPerSetup * 100)
	l := ladder{dur: cfg.measure() / libRungShare, limitUs: libLimitUs}
	var ws windowSet
	var ls ladderSet
	var io ioSums
	var samples []libSample
	var fileBytes int64
	tally := func(p libPhase) {
		samples = append(samples, p.samples...)
		oc.attempted += p.ops()
		oc.failed += p.failed()
	}
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			if err := closeStore(); err != nil {
				return nil, err
			}
		}
		quiesce()
		var err error
		if st, err = s.open(cfg.tmp, rep, pts, cfg.seed, nil); err != nil {
			return nil, err
		}
		logf("%s: set-up %d took %v (build %v)", s.name, rep, st.setupDur, st.buildDur)
		setups = append(setups, st.setupDur.Seconds())
		buildUs = append(buildUs, float64(st.buildDur.Microseconds())/float64(s.n))
		fi, err := os.Stat(st.path)
		if err != nil {
			return nil, err
		}
		fileBytes = fi.Size()
		r.st = st
		// The build leaves the index file's pages dirty; written back during
		// the windows, they would compete with the workload.
		quiesce()
		for w := 0; w < windowsPerSetup; w++ {
			p := r.run(rep*windowsPerSetup+w, window, 0, false)
			ws.add(p.phase)
			io.merge(p.io)
			tally(p)
		}
		first := setupReps*windowsPerSetup + rep*ladderRungs
		ls.add(l.climb(ws.lastOpsPerSec(windowsPerSetup), func(i int, rate float64, dur time.Duration) phase {
			p := r.run(first+i, dur, rate, false)
			tally(p)
			return p.phase
		}))
	}
	oc.notes["index_pages"] = st.ix.Pages()
	oc.notes["pool_pages"] = s.poolPages
	oc.notes["n"] = s.n

	memPeak := peakRSSMB()
	logf("%s: measured", s.name)
	if err := closeStore(); err != nil {
		return nil, err
	}
	logf("%s: closed", s.name)
	oc.wrong = checkSamples(pts, samples)
	logf("%s: checked %d answers", s.name, len(samples))
	oc.notes["checked_answers"] = len(samples)
	ls.notes(oc, l.limitUs)
	ws.notes(oc)
	// A static index takes writes only as its bulk build.
	oc.notes["build_us_per_record"] = median(buildUs)

	m := oc.metrics
	m.add("setup_s", "s", median(setups))
	m.add("ops_per_s", "1/s", ws.opsPerSec())
	m.add("read_p50_us", "us", ws.readQuantile(0.5))
	m.add("read_p99_us", "us", ws.readQuantile(0.99))
	m.add("max_ok_rate_ops_s", "1/s", ls.maxOKRate())
	m.add("pages_per_op", "pages", io.per(io.reads+io.hits))
	m.add("write_amp", "ratio", median(amps))
	m.add("bytes_per_record", "B", float64(fileBytes)/float64(s.n))
	m.add("mem_peak_mb", "MB", memPeak)
	return oc, nil
}

// recordBytes is the user payload of one record: X, Y and ID.
const recordBytes = 24

// runTraced is the per-layer run: phase A against a plain store (the
// untraced reference for the tracing overhead and the runtime layer),
// phase B against a store built with the timing pager and the tracer.
func (s *libSpec) runTraced(cfg runCfg, pts []pathcache.Point) (*outcome, error) {
	oc := newOutcome()
	half := cfg.measure() / 2

	runtime.GC()
	stA, err := s.open(cfg.tmp, 0, pts, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	rA := &libRun{spec: s, st: stA, seed: cfg.seed}
	quiesce()
	rt0 := readRuntime()
	pA := rA.run(0, half, 0, false)
	rt1 := readRuntime()
	if _, err := stA.close(); err != nil {
		return nil, err
	}

	spans := &spanLog{}
	tr := &libTrace{tracer: newOpTracer(spans)}
	runtime.GC()
	stB, err := s.open(cfg.tmp, 1, pts, cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	rB := &libRun{spec: s, st: stB, seed: cfg.seed, spans: spans}
	quiesce()
	pB := rB.run(1, half, 0, true)
	if _, err := stB.close(); err != nil {
		return nil, err
	}
	samples := append(pA.samples, pB.samples...)
	oc.wrong = checkSamples(pts, samples)
	oc.attempted = pA.ops() + pB.ops()
	oc.failed = pA.failed() + pB.failed()

	q := tr.tracer.get("query")
	fetchNs := tr.fetch.ns.Load()
	fetchPages := tr.fetch.pages.Load()
	if want := pB.io.reads + pB.io.hits; fetchPages != want {
		return nil, fmt.Errorf("%s: timing pager saw %d page accesses, the IOProfiles report %d", s.name, fetchPages, want)
	}
	engine := time.Duration(q.ns.Load())
	fetch := time.Duration(fetchNs)
	self := selfTimes{
		"loadgen": pB.loadgen,
		"handle":  pB.handle,
		"api":     pB.call - engine,
		"index":   engine - fetch,
		"disk":    fetch,
	}
	var e2e time.Duration
	for _, st := range pB.per {
		e2e += st.end.Sub(st.start)
	}
	gap, err := self.check(e2e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	ops := float64(max(pB.io.ops, 1))
	us := func(d time.Duration) float64 { return float64(d) / 1e3 / ops }

	m := oc.metrics
	m.add("disk.pool_hit_share", "share", ratio(tr.fetch.hits.Load(), fetchPages))
	m.add("disk.fetch_ns_per_page", "ns", ratio(fetchNs, fetchPages))
	m.add("disk.fetch_share", "share", float64(fetch)/float64(e2e))
	m.add("disk.reads_per_op", "pages", pB.io.per(pB.io.reads))
	m.add("index.list_pages_per_op", "pages", pB.io.per(pB.io.list))
	m.add("index.path_pages_per_op", "pages", pB.io.per(pB.io.path))
	m.add("index.useful_io_share", "share", ratio(pB.io.useful, pB.io.useful+pB.io.wasteful))
	m.add("index.self_us_per_op", "us", us(self["index"]))
	m.add("index.bound_ratio_mean", "ratio", pB.io.ratioSum/ops)
	m.add("index.bound_ratio_max", "ratio", pB.io.ratioMax)
	m.add("api.self_us_per_op", "us", us(self["api"]))
	runtimeLayer(rt0, rt1, pA.ops(), m)
	m.add("handle.acquire_ns", "ns", us(self["handle"])*1e3)
	m.add("loadgen.self_us_per_op", "us", us(self["loadgen"]))
	m.add("loadgen.lag_p99_us", "us", 0) // closed loop: no schedule to lag behind
	m.add("loadgen.trace_overhead_share", "share", quantileUs(pB.readLat(), 0.5)/quantileUs(pA.readLat(), 0.5)-1)
	m.add("trace.self_sum_gap_share", "share", math.Abs(gap))

	path, err := spans.write(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", s.name, cfg.seed))
	if err != nil {
		return nil, err
	}
	oc.notes["spans"] = path
	oc.notes["self_us_per_op"] = map[string]float64{
		"loadgen": us(self["loadgen"]), "handle": us(self["handle"]), "api": us(self["api"]),
		"index": us(self["index"]), "disk": us(self["disk"]),
	}
	return oc, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
