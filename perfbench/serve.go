package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pathcache"
	"pathcache/internal/disk"
	"pathcache/internal/inmem"
	"pathcache/internal/record"
	"pathcache/internal/server"
)

// serve-mixed is the only workload through HTTP/JSON, admission, the shard
// router and the write tier: a 4-shard LSM store over the twosided base,
// opened exactly as cmd/pcserve opens it (pathcache.OpenHandle on the
// directory, server.New with pcserve's default Config) on a loopback
// listener. 90% of requests are /v1/query corners Zipf-skewed over hot
// spots (~200 results each); 10% are /v1/insert with fresh IDs at uniform
// positions, as the repository's served load draws them. The inserts
// append to the WAL and trigger memtable flushes and level merges while
// reads run beside them.
//
// A shard's 1st, 3rd, 7th, ... memtable flush (after 64, 192, 448, 960,
// 1984, 4032 inserts into it) rebuilds its whole base level, ~150 ms
// during which reads of the shard wait. Spread over a fresh store's first
// seconds of writes, these rebuilds would land wherever the run's
// throughput put them. Set-up therefore preloads 2,000 inserts into each
// shard after the build, as a store that has been taking writes for a
// while has them: the rebuilds up to 1984 happen in set-up, and the next
// one is 2,032 inserts per shard away, while a store takes at most ~4,800
// inserts in all (6 s of load at 8k ops/s), about 1,200 per shard. The
// measured phases still flush every 64 inserts per shard and merge the
// small levels.
//
// OpenHandle opens the store with no options, so no buffer pool reaches a
// served index and pcserve has no flag for one: disk.pool_hit_share reads 0
// here by construction. The workload keeps that configuration so it
// measures what ships.

const (
	serveN         = 200_000
	serveShards    = 4
	serveResults   = 200
	insertShare    = 0.1
	serveLatCap    = 100_000
	readSampleRate = 8     // one read in readSampleRate keeps its answer for checking
	maxReadSamples = 4_000 // per caller
	// serveSetups is how many times a run sets up its store. A set-up
	// takes 12-25 s on a 2-vCPU VM, most of it the build's 200k
	// WAL-synced inserts; a third set-up would take the run past the time
	// all of the benchmark's runs together may take.
	serveSetups = 2
	// serveWindows closed-loop windows follow each set-up.
	serveWindows = 8
	// serveRungShare is a ladder rung's length as a share of the run, 0.4 s
	// at 12 s. With the library's 0.25 s rungs, max_ok_rate_ops_s spread by
	// 23% of its median over ten seeds on a 2-vCPU VM.
	serveRungShare = 30
	// pagesReads is how many reads per caller, at the start of each
	// store's load, pages_per_op counts (see runServeMixed).
	pagesReads = 3_000
	// serveTracedRate is the open-loop rate of the traced run's phases.
	serveTracedRate = 2000
	// preloadPerShard inserts go into each shard in set-up; the next base
	// rebuild is then at 4032 inserts into a shard.
	preloadPerShard = 2_000
	preloadID       = 1 << 60
)

// serveLimitUs is the read p99 and backlog limit of a passing ladder rung
// on serve-mixed. It sits far above the small-level merges, GC pauses and
// host hiccups (p99 is a few ms below capacity, but a busy shared host has
// pushed single windows past 200 ms), so the ladder runs all its rungs, and
// the rungs past capacity achieve the capacity.
const serveLimitUs = 1_000_000

// pcserveConfig is cmd/pcserve's Config with every flag at its default.
var pcserveConfig = server.Config{DefaultDeadline: 30 * time.Second, MaxDeadline: 60 * time.Second}

type serveStore struct {
	dir       string
	preloaded []pathcache.Point
	h         *pathcache.Handle
	srv       *server.Server
	errc      chan error
	url       string
	client    *http.Client
	setupDur  time.Duration
}

// openServe builds the store, preloads inserts and serves it (set-up:
// build, preload, open, listen).
func openServe(dir string, pts []pathcache.Point, seed int64) (*serveStore, error) {
	t0 := time.Now()
	sh, err := pathcache.BuildShardedPoints(dir, "lsm", pts,
		pathcache.ShardPlan{Shards: serveShards, Base: "twosided"}, &pathcache.Options{PageSize: pageSize})
	if err != nil {
		return nil, fmt.Errorf("serve-mixed: build: %w", err)
	}
	splits := sh.Splits()
	if len(splits) != serveShards-1 {
		sh.Close()
		return nil, fmt.Errorf("serve-mixed: built %d shards, want %d", len(splits)+1, serveShards)
	}
	tBuild := time.Since(t0)
	pre := preloadPoints(splits, preloadPerShard, seed, preloadID)
	for _, p := range pre {
		if _, err := sh.Insert(p); err != nil {
			sh.Close()
			return nil, fmt.Errorf("serve-mixed: preload: %w", err)
		}
	}
	tPre := time.Since(t0)
	if err := sh.Close(); err != nil {
		return nil, err
	}
	logf("serve-mixed: build %v, preload %v", tBuild, tPre-tBuild)
	h, err := pathcache.OpenHandle(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, err
	}
	s := &serveStore{
		dir:       dir,
		preloaded: pre,
		h:         h,
		srv:       server.New(h, pcserveConfig),
		errc:      make(chan error, 1),
		url:       "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: callers,
			MaxConnsPerHost:     callers,
			DisableCompression:  true,
		}},
	}
	go func() { s.errc <- s.srv.Serve(ln) }()
	resp, err := s.client.Get(s.url + "/healthz")
	if err != nil {
		s.close()
		return nil, err
	}
	resp.Body.Close()
	s.setupDur = time.Since(t0)
	return s, nil
}

// stopServing drains the server and closes the handle, leaving the files.
func (s *serveStore) stopServing() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if serr := <-s.errc; err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if herr := s.h.Close(); err == nil {
		err = herr
	}
	return err
}

func (s *serveStore) close() error {
	err := s.stopServing()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// storeWrites and storeBytes read the served store's counters and size.
func (s *serveStore) storeWrites() (int64, error) {
	ix, release, err := s.h.Acquire()
	if err != nil {
		return 0, err
	}
	defer release()
	return ix.Stats().Writes, nil
}

func (s *serveStore) storeBytesPerRecord() (float64, error) {
	ix, release, err := s.h.Acquire()
	if err != nil {
		return 0, err
	}
	n := ix.Len()
	release()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return float64(total) / float64(n), nil
}

// Wire shapes (internal/server's JSON).
type pointJSON struct {
	X  int64  `json:"x"`
	Y  int64  `json:"y"`
	ID uint64 `json:"id"`
}

type ioJSON struct {
	Reads     int64 `json:"reads"`
	Writes    int64 `json:"writes"`
	CacheHits int64 `json:"cache_hits"`
}

type queryResp struct {
	Count  int         `json:"count"`
	Points []pointJSON `json:"points"`
	IO     ioJSON      `json:"io"`
}

type queryCountResp struct {
	Count int    `json:"count"`
	IO    ioJSON `json:"io"`
}

type updateResp struct {
	Records int    `json:"records"`
	IO      ioJSON `json:"io"`
}

// readSample is a checked read: its query, when it was sent and answered
// (ns since the run's epoch), and the answer.
type readSample struct {
	q          query
	sent, recv int64
	pts        []pointJSON
}

// insertRec logs every insert the model needs: acknowledged ones must
// appear in reads sent after the acknowledgement; unacknowledged ones may.
type insertRec struct {
	p          pathcache.Point
	sent, recv int64
	acked      bool
}

type serveCaller struct {
	ss      *spotStream
	nextID  uint64
	body    []byte
	buf     bytes.Buffer
	reads   int64
	pages   int64 // page accesses of the first pagesReads reads
	respB   int64
	denied  int64
	inserts []insertRec
	samples []readSample
	// insertWrites sums the page writes insert responses report.
	insertWrites int64
	// Traced phases: the generator's own time (building requests,
	// decoding and checking answers) and the round-trip time per kind,
	// each timed on its own, and the queries to replay.
	traced             bool
	loadgen, rtt, wrtt time.Duration
	replay             []query
	nreqs              int
}

type serveRun struct {
	s     *serveStore
	seed  int64
	epoch time.Time
	cs    []*serveCaller
	spans *spanLog
}

var errDenied = errors.New("request refused")

func (r *serveRun) post(cs *serveCaller, path string) (int, error) {
	req, err := http.NewRequest(http.MethodPost, r.s.url+path, bytes.NewReader(cs.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.s.client.Do(req)
	if err != nil {
		return 0, err
	}
	cs.buf.Reset()
	_, err = cs.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		cs.denied++
		return resp.StatusCode, errDenied
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, cs.buf.String())
	}
	return resp.StatusCode, nil
}

func (r *serveRun) do(c int, _ time.Time) (bool, error) {
	cs := r.cs[c]
	var t0, t1, t2 time.Time
	if cs.traced {
		t0 = time.Now()
		defer func() { cs.loadgen += t1.Sub(t0) + time.Since(t2) }()
	}
	write := cs.ss.rng.Float64() < insertShare
	var q query
	var ins pathcache.Point
	if write {
		ins.X, ins.Y = cs.ss.insertPoint()
		ins.ID = cs.nextID
		cs.nextID += callers
		cs.body = fmt.Appendf(cs.body[:0], `{"x":%d,"y":%d,"id":%d}`, ins.X, ins.Y, ins.ID)
	} else {
		q = cs.ss.query()
		cs.body = fmt.Appendf(cs.body[:0], `{"a":%d,"b":%d}`, q.A1, q.B)
	}
	t1 = time.Now()
	var err error
	if write {
		_, err = r.post(cs, "/v1/insert")
	} else {
		_, err = r.post(cs, "/v1/query")
	}
	t2 = time.Now()
	if cs.traced {
		if write {
			cs.wrtt += t2.Sub(t1)
		} else {
			cs.rtt += t2.Sub(t1)
		}
		cs.nreqs++
		if cs.nreqs%spanEvery == 0 {
			r.spans.add(span{Layer: "server.request", ID: uint64(c)<<40 | uint64(cs.nreqs), Start: t1, End: t2})
		}
	}
	if write {
		rec := insertRec{p: ins, sent: t1.Sub(r.epoch).Nanoseconds(), recv: t2.Sub(r.epoch).Nanoseconds()}
		if err == nil {
			var resp updateResp
			if err = json.Unmarshal(cs.buf.Bytes(), &resp); err == nil {
				rec.acked = true
				cs.insertWrites += resp.IO.Writes
			}
		}
		cs.inserts = append(cs.inserts, rec)
		return true, err
	}
	if err != nil {
		return false, err
	}
	cs.reads++
	cs.respB += int64(cs.buf.Len())
	sampled := cs.reads%readSampleRate == 0 && len(cs.samples) < maxReadSamples
	var io ioJSON
	if sampled {
		var resp queryResp
		err = json.Unmarshal(cs.buf.Bytes(), &resp)
		io = resp.IO
		cs.samples = append(cs.samples, readSample{q: q,
			sent: t1.Sub(r.epoch).Nanoseconds(), recv: t2.Sub(r.epoch).Nanoseconds(), pts: resp.Points})
		if resp.Count != len(resp.Points) {
			err = fmt.Errorf("query: count %d with %d points", resp.Count, len(resp.Points))
		}
	} else {
		var resp queryCountResp
		err = json.Unmarshal(cs.buf.Bytes(), &resp)
		io = resp.IO
	}
	if cs.reads <= pagesReads {
		cs.pages += io.Reads + io.CacheHits
	}
	if cs.traced && cs.reads%4 == 0 {
		cs.replay = append(cs.replay, q)
	}
	return false, err
}

// servePhase is the outcome of one phase.
type servePhase struct {
	phase
	callers []*serveCaller
}

func (p servePhase) sum(f func(*serveCaller) int64) (n int64) {
	for _, cs := range p.callers {
		n += f(cs)
	}
	return n
}

// newCallers starts the two connections' request streams for stream
// index idx.
func (r *serveRun) newCallers(idx int, traced bool) []*serveCaller {
	cs := make([]*serveCaller, callers)
	for c := range cs {
		cs[c] = &serveCaller{
			ss:     newHotSpots(newHyperbola(serveResults, serveN), r.seed).stream(newRand(r.seed, slotInputs+8*idx+c)),
			nextID: uint64(serveN) + 1 + uint64(idx)<<32 + uint64(c),
			traced: traced,
		}
	}
	return cs
}

// run drives phase idx with fresh callers.
func (r *serveRun) run(idx int, dur time.Duration, rate float64, traced bool) servePhase {
	return r.drive(r.newCallers(idx, traced), idx, dur, rate)
}

// drive runs phase idx with the callers cs, which carry their request
// streams and counters over from earlier phases.
func (r *serveRun) drive(cs []*serveCaller, idx int, dur time.Duration, rate float64) servePhase {
	r.cs = cs
	capHint := serveLatCap
	if rate > 0 {
		capHint = int(rate*dur.Seconds()/callers*1.5) + 64
	}
	p := runPhase(dur, rate, newRand(r.seed, slotSchedule+idx), capHint, r.do)
	return servePhase{phase: p, callers: cs}
}

func runServeMixed(cfg runCfg) (*outcome, error) {
	pts := uniformPoints(serveN, cfg.seed)
	oc := newOutcome()
	oc.notes["n"] = serveN
	oc.notes["shards"] = serveShards
	oc.notes["pool_pages"] = 0
	oc.notes["pool_note"] = "served stores open without a buffer pool (OpenHandle passes no options); disk.pool_hit_share is 0 by construction"
	if cfg.trace {
		quiesce()
		st, err := openServe(filepath.Join(cfg.tmp, "store"), pts, cfg.seed)
		if err != nil {
			return nil, err
		}
		quiesce()
		return serveTraced(cfg, &serveRun{s: st, seed: cfg.seed, epoch: time.Now(), spans: &spanLog{}}, append(pts, st.preloaded...), oc)
	}

	// Each set-up is followed by its share of the closed loop, run as
	// windows, so the windows sample two stretches of the run rather than
	// one; the host's noise comes in stretches of tens of seconds.
	// Each store then climbs a ladder anchored at its windows' throughput.
	var setups []float64
	// ops_per_s and the read latencies are medians over the quiet windows
	// (see windowSet.quiet) of each window's figure (a window holds
	// 1,300-2,700 reads); the writes, a tenth of the traffic, are pooled
	// over the quiet windows.
	var ws windowSet
	var ls ladderSet
	var reads, pages, acked, storeWrites int64
	var checked int
	var bpr, memPeak float64
	l := ladder{dur: cfg.measure() / serveRungShare, limitUs: serveLimitUs}
	window := (cfg.measure() - serveSetups*ladderRungs*l.dur) / (serveSetups * serveWindows)
	for rep := 0; rep < serveSetups; rep++ {
		quiesce()
		s, err := openServe(filepath.Join(cfg.tmp, fmt.Sprintf("store-%d", rep)), pts, cfg.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setupDur.Seconds())
		// Write back the set-up's dirty pages now: on ext4 an insert's WAL
		// fsync commits the journal, and would wait for them.
		quiesce()
		r := &serveRun{s: s, seed: cfg.seed, epoch: time.Now(), spans: &spanLog{}}
		w0, err := s.storeWrites()
		if err != nil {
			return nil, err
		}
		// The two connections keep their request streams over the store's
		// windows and ladder, so a caller's k-th request is the same
		// whatever the throughput.
		cs := r.newCallers(rep, false)
		var phases []servePhase
		for w := 0; w < serveWindows; w++ {
			p := r.drive(cs, rep*serveWindows+w, window, 0)
			phases = append(phases, p)
			ws.add(p.phase)
		}
		first := serveSetups*serveWindows + rep*ladderRungs
		ls.add(l.climb(ws.lastOpsPerSec(serveWindows), func(i int, rate float64, dur time.Duration) phase {
			p := r.drive(cs, first+i, dur, rate)
			phases = append(phases, p)
			return p.phase
		}))
		// Pages per read over each caller's first pagesReads reads of the
		// store: a read's pages grow with the levels a shard holds, so they
		// depend on the inserts before it. Counted by requests rather than
		// by time, the inserts before every counted read are fixed by the
		// seed, up to how the two callers interleave.
		for _, c := range cs {
			reads += min(c.reads, pagesReads)
			pages += c.pages
		}
		if rep == serveSetups-1 {
			if bpr, err = s.storeBytesPerRecord(); err != nil {
				return nil, err
			}
			memPeak = peakRSSMB()
		}
		w1, err := s.storeWrites()
		if err != nil {
			return nil, err
		}
		storeWrites += w1 - w0
		if err := s.close(); err != nil {
			return nil, err
		}
		for _, p := range phases {
			oc.attempted += p.ops()
			oc.failed += p.failed()
		}
		for _, c := range cs {
			for _, in := range c.inserts {
				if in.acked {
					acked++
				}
			}
		}
		// Answers are checked per store: an insert into one store is not
		// expected in the next one's reads.
		wrong, n := checkServe(append(pts, s.preloaded...), cs)
		oc.wrong += wrong
		checked += n
	}
	oc.notes["checked_answers"] = checked
	ls.notes(oc, serveLimitUs)
	ws.notes(oc)
	// The insert latencies are recorded but are not end-to-end metrics.
	// An insert waits for its WAL fsync, so its median moves with the disk's
	// fsync latency, and its p99 with the memtable flushes (one insert in 64 per
	// shard flushes, each a handful of fsyncs). On a shared 2-vCPU VM, with
	// the neighbours' load, the p50 spread by 27% of its median in each of
	// two sets of ten seeds, and the p99 by 35%, even over a fixed count of
	// inserts per store; the traced run reports lsm.insert_p50_us and
	// lsm.insert_p99_us.
	oc.notes["timed_writes"] = len(ws.quietWrites())
	oc.notes["write_p50_us"] = ws.writeQuantile(0.5)
	oc.notes["write_p99_us"] = ws.writeQuantile(0.99)

	m := oc.metrics
	m.add("setup_s", "s", median(setups))
	m.add("ops_per_s", "1/s", ws.opsPerSec())
	m.add("read_p50_us", "us", ws.readQuantile(0.5))
	m.add("read_p99_us", "us", ws.readQuantile(0.99))
	m.add("max_ok_rate_ops_s", "1/s", ls.maxOKRate())
	m.add("pages_per_op", "pages", ratio(pages, reads))
	m.add("write_amp", "ratio", float64(storeWrites)*pageSize/(float64(max(acked, 1))*recordBytes))
	m.add("bytes_per_record", "B", bpr)
	m.add("mem_peak_mb", "MB", memPeak)
	return oc, nil
}

// checkServe checks every sampled read against the model of acknowledged
// inserts: the answer must hold every base record and every insert
// acknowledged before the read was sent that matches the query, and
// nothing but matching base records and inserts sent before the answer
// arrived.
func checkServe(base []pathcache.Point, cs []*serveCaller) (wrong, checked int) {
	rec := make([]record.Point, len(base))
	for i, p := range base {
		rec[i] = record.Point(p)
	}
	pst := inmem.NewPST(rec)
	var inserts []insertRec
	for _, c := range cs {
		inserts = append(inserts, c.inserts...)
	}
	byID := make(map[uint64]insertRec, len(inserts))
	for _, in := range inserts {
		byID[in.p.ID] = in
	}
	for _, c := range cs {
		for _, s := range c.samples {
			checked++
			if !checkRead(s, pst, inserts, byID) {
				wrong++
			}
		}
	}
	return wrong, checked
}

func checkRead(s readSample, pst *inmem.PST, inserts []insertRec, byID map[uint64]insertRec) bool {
	got := make(map[uint64]pointJSON, len(s.pts))
	for _, p := range s.pts {
		if _, dup := got[p.ID]; dup {
			return false
		}
		if !s.q.holds(pathcache.Point{X: p.X, Y: p.Y, ID: p.ID}) {
			return false
		}
		got[p.ID] = p
	}
	want := pst.ThreeSided(s.q.A1, s.q.A2, s.q.B)
	baseIDs := make(map[uint64]bool, len(want))
	for _, b := range want {
		if g, ok := got[b.ID]; !ok || g.X != b.X || g.Y != b.Y {
			return false
		}
		baseIDs[b.ID] = true
	}
	for _, in := range inserts {
		if in.acked && in.recv < s.sent && s.q.holds(in.p) {
			if g, ok := got[in.p.ID]; !ok || g.X != in.p.X || g.Y != in.p.Y {
				return false
			}
		}
	}
	// Everything returned is a base record the oracle returns (already
	// matched above) or an insert that was sent before the answer arrived.
	for id, g := range got {
		if baseIDs[id] {
			continue
		}
		in, ok := byID[id]
		if !ok || in.sent > s.recv || in.p.X != g.X || in.p.Y != g.Y {
			return false
		}
	}
	return true
}

// serveTraced is the per-layer run: phase A at the top latency rate
// untraced, phase B at the same rate with client-side spans, then a direct
// replay of phase B's queries against the store opened with the timing
// pager and the tracer, and a batch of traced inserts for the write tier.
func serveTraced(cfg runCfg, r *serveRun, pts []pathcache.Point, oc *outcome) (*outcome, error) {
	rate := float64(serveTracedRate)
	half := cfg.measure() / 2
	runtime.GC()
	rt0 := readRuntime()
	pA := r.run(0, half, rate, false)
	rt1 := readRuntime()
	runtime.GC()
	pB := r.run(1, half, rate, true)
	if err := r.s.stopServing(); err != nil {
		return nil, err
	}
	phases := []servePhase{pA, pB}
	for _, p := range phases {
		oc.attempted += p.ops()
		oc.failed += p.failed()
	}
	oc.wrong, oc.notes["checked_answers"] = checkServe(pts, append(pA.callers, pB.callers...))

	rp, err := replay(r.s.dir, pB, r.spans)
	if err != nil {
		return nil, err
	}
	readsB := pB.sum(func(c *serveCaller) int64 { return c.reads })
	var loadgen, idle, rtt, wrtt time.Duration
	var e2e time.Duration
	for i, cs := range pB.callers {
		st := pB.per[i]
		loadgen += cs.loadgen
		idle += st.idle
		rtt += cs.rtt
		wrtt += cs.wrtt
		e2e += st.end.Sub(st.start)
	}
	nr := time.Duration(readsB)
	self := selfTimes{
		"loadgen": loadgen,
		"idle":    idle,
		"server":  rtt - nr*(rp.handle+rp.call),
		"handle":  nr * rp.handle,
		"shard":   nr * (rp.call - rp.engine),
		"index":   nr * (rp.engine - rp.fetch),
		"disk":    nr * rp.fetch,
		"lsm":     wrtt,
	}
	gap, err := self.check(e2e)
	if err != nil {
		return nil, fmt.Errorf("serve-mixed: %w", err)
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	insertsB := pB.sum(func(c *serveCaller) int64 { return int64(len(c.inserts)) })

	m := oc.metrics
	m.add("disk.pool_hit_share", "share", rp.hitShare)
	m.add("disk.fetch_ns_per_page", "ns", rp.fetchNsPerPage)
	m.add("disk.fetch_share", "share", float64(self["disk"])/float64(e2e))
	m.add("disk.reads_per_op", "pages", rp.readsPerOp)
	m.add("index.self_us_per_op", "us", us(rp.engine-rp.fetch))
	runtimeLayer(rt0, rt1, pA.ops(), m)
	m.add("handle.acquire_ns", "ns", float64(rp.handle))
	m.add("server.self_us_per_req", "us", us(self["server"])/float64(max(readsB, 1)))
	m.add("server.resp_bytes_per_read", "B", ratio(pB.sum(func(c *serveCaller) int64 { return c.respB }), readsB))
	m.add("server.denied_share", "share", ratio(pB.sum(func(c *serveCaller) int64 { return c.denied }), int64(pB.ops())))
	m.add("shard.fanout_per_read", "count", rp.fanout)
	m.add("shard.self_us_per_read", "us", us(rp.call-rp.engine))
	m.add("lsm.insert_writes_per_op", "pages", ratio(pB.sum(func(c *serveCaller) int64 { return c.insertWrites }), insertsB))
	m.add("lsm.maint_ms_per_1k_inserts", "ms", rp.maintMsPer1k)
	m.add("lsm.maint_writes_per_insert", "pages", rp.maintWritesPerInsert)
	m.add("lsm.insert_p50_us", "us", quantileUs(pB.writeLat(), 0.5))
	m.add("lsm.insert_p99_us", "us", quantileUs(pB.writeLat(), 0.99))
	m.add("loadgen.lag_p99_us", "us", quantileUs(pA.lagLat(), 0.99))
	m.add("loadgen.self_us_per_op", "us", us(self["loadgen"])/float64(max(pB.ops(), 1)))
	m.add("loadgen.trace_overhead_share", "share", quantileUs(pB.readLat(), 0.5)/quantileUs(pA.readLat(), 0.5)-1)
	m.add("trace.self_sum_gap_share", "share", math.Abs(gap))

	path, err := r.spans.write(cfg.out, fmt.Sprintf("spans-serve-mixed-%d.jsonl", cfg.seed))
	if err != nil {
		return nil, err
	}
	oc.notes["spans"] = path
	oc.notes["replayed_queries"] = rp.n
	if err := os.RemoveAll(r.s.dir); err != nil {
		return nil, err
	}
	return oc, nil
}

// replayResult is the per-read cost of the direct library replay.
type replayResult struct {
	n                                  int
	handle, call, engine, fetch        time.Duration // mean per read
	fanout, readsPerOp                 float64
	hitShare, fetchNsPerPage           float64
	maintMsPer1k, maintWritesPerInsert float64
}

// replayInserts is how many traced inserts measure the write tier's
// maintenance cost per insert: enough for several flushes per shard.
const replayInserts = 2_000

// replay reopens the store with the timing pager and the tracer, replays
// the sampled phase-B queries through Sharded.QueryProfile with as many
// callers as the served phase had, then runs a batch of inserts at uniform
// positions, as the workload's inserts go.
func replay(dir string, pB servePhase, spans *spanLog) (replayResult, error) {
	var res replayResult
	var fetch fetchStats
	tracer := newOpTracer(spans)
	sh, err := pathcache.OpenSharded(dir, &pathcache.Options{
		Tracer:    tracer,
		WrapPager: func(p disk.Pager) disk.Pager { return timingPager{Pager: p, st: &fetch} },
	})
	if err != nil {
		return res, err
	}
	h := pathcache.NewHandle(dir, sh)
	defer h.Close()
	tracer.reset()
	fetch.reset()

	var qs []query
	for _, cs := range pB.callers {
		qs = append(qs, cs.replay...)
	}
	type acc struct {
		handle, call  time.Duration
		fanout, reads int64
		err           error
	}
	accs := make([]acc, callers)
	done := make(chan struct{})
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			a := &accs[c]
			for i := c; i < len(qs); i += callers {
				t1 := time.Now()
				ix, release, err := h.Acquire()
				if err != nil {
					a.err = err
					return
				}
				t2 := time.Now()
				_, profs, err := ix.(*pathcache.Sharded).QueryProfile(qs[i].A1, qs[i].B)
				t3 := time.Now()
				if rerr := release(); err == nil {
					err = rerr
				}
				a.handle += t2.Sub(t1) + time.Since(t3)
				a.call += t3.Sub(t2)
				if err != nil {
					a.err = err
					return
				}
				a.fanout += int64(len(profs))
				for _, p := range profs {
					a.reads += p.Reads
				}
			}
		}(c)
	}
	for c := 0; c < callers; c++ {
		<-done
	}
	var handle, call time.Duration
	var fanout, reads int64
	for _, a := range accs {
		if a.err != nil {
			return res, fmt.Errorf("replay: %w", a.err)
		}
		handle += a.handle
		call += a.call
		fanout += a.fanout
		reads += a.reads
	}
	n := len(qs)
	nd := time.Duration(max(n, 1))
	q := tracer.get("query")
	res = replayResult{
		n:              n,
		handle:         handle / nd,
		call:           call / nd,
		engine:         time.Duration(q.ns.Load()) / nd,
		fetch:          time.Duration(fetch.ns.Load()) / nd,
		fanout:         ratio(fanout, int64(n)),
		readsPerOp:     ratio(reads, int64(n)),
		hitShare:       ratio(fetch.hits.Load(), fetch.pages.Load()),
		fetchNsPerPage: ratio(fetch.ns.Load(), fetch.pages.Load()),
	}

	ins := pB.callers[0].ss
	for i := 0; i < replayInserts; i++ {
		p := pathcache.Point{ID: 1<<62 + uint64(i)}
		p.X, p.Y = ins.insertPoint()
		if _, err := sh.Insert(p); err != nil {
			return res, fmt.Errorf("replay insert: %w", err)
		}
	}
	fl, co := tracer.get("flush"), tracer.get("compact")
	res.maintMsPer1k = float64(fl.ns.Load()+co.ns.Load()) / 1e6 / replayInserts * 1000
	res.maintWritesPerInsert = float64(fl.writes.Load()+co.writes.Load()) / replayInserts
	return res, nil
}
