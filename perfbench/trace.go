package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"pathcache"
	"pathcache/internal/disk"
)

// Tracing lives entirely in the benchmark: the traced run installs a
// timing pager through Options.WrapPager and a pathcache.Tracer, and
// records spans around its own calls into the handle, the index API and
// the HTTP server. The untraced run installs neither.

// fetchStats accumulates the page accesses one timing pager saw inside
// operations.
type fetchStats struct {
	ns, pages, hits atomic.Int64
}

func (f *fetchStats) reset() {
	f.ns.Store(0)
	f.pages.Store(0)
	f.hits.Store(0)
}

// timingPager wraps the pager an index routes its I/O through. It sits
// above the buffer pool, so it sees every page access, hit or miss.
// Operations reach it through WithCounter, the hook disk.WithCounter
// prefers, so per-operation counting stays exactly as without it.
type timingPager struct {
	disk.Pager
	st *fetchStats
}

func (t timingPager) WithCounter(c *disk.Counter) disk.Pager {
	return &timedView{Pager: disk.WithCounter(t.Pager, c), c: c, st: t.st}
}

type timedView struct {
	disk.Pager
	c  *disk.Counter
	st *fetchStats
}

func (v *timedView) Read(id disk.PageID, buf []byte) error {
	h0 := v.c.Hits()
	t0 := time.Now()
	err := v.Pager.Read(id, buf)
	v.st.ns.Add(int64(time.Since(t0)))
	v.st.pages.Add(1)
	if v.c.Hits() != h0 {
		v.st.hits.Add(1)
	}
	return err
}

// opTotals sums the engine's trace events of one operation name.
type opTotals struct {
	n, ns, reads, writes, hits atomic.Int64
}

// opTracer is the pathcache.Tracer of a traced run. It sums events per
// operation name and keeps a sample of them as spans.
type opTracer struct {
	byName map[string]*opTotals
	spans  *spanLog
}

func newOpTracer(spans *spanLog) *opTracer {
	t := &opTracer{byName: map[string]*opTotals{}, spans: spans}
	for _, name := range []string{"query", "insert", "flush", "compact"} {
		t.byName[name] = new(opTotals)
	}
	return t
}

func (t *opTracer) OpStart(pathcache.TraceOp) {}

func (t *opTracer) OpEnd(ev pathcache.TraceEvent) {
	o := t.byName[ev.Name] // read-only after construction
	if o == nil {
		return
	}
	o.n.Add(1)
	o.ns.Add(int64(ev.Duration))
	o.reads.Add(ev.Reads)
	o.writes.Add(ev.Writes)
	o.hits.Add(ev.CacheHits)
	if ev.Seq%spanEvery == 0 {
		t.spans.add(span{Layer: "index." + ev.Name, ID: ev.Seq, Start: ev.Start, End: ev.Start.Add(ev.Duration)})
	}
}

func (t *opTracer) get(name string) *opTotals { return t.byName[name] }

// reset zeroes the totals and drops the spans recorded so far.
func (t *opTracer) reset() {
	for _, o := range t.byName {
		for _, v := range []*atomic.Int64{&o.n, &o.ns, &o.reads, &o.writes, &o.hits} {
			v.Store(0)
		}
	}
	t.spans.mu.Lock()
	t.spans.spans = t.spans.spans[:0]
	t.spans.mu.Unlock()
}

// spanEvery samples spans: one operation in spanEvery keeps its spans, so
// the in-memory log stays small however fast the workload runs.
const spanEvery = 256

// span is one timed call at a layer boundary. Spans of one operation share
// ID; Parent names the layer of the span that caused it.
type span struct {
	Layer  string    `json:"layer"`
	Parent string    `json:"parent,omitempty"`
	ID     uint64    `json:"id"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// spanLog keeps sampled spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s ...span) {
	l.mu.Lock()
	l.spans = append(l.spans, s...)
	l.mu.Unlock()
}

// write dumps the spans as JSON lines under dir.
func (l *spanLog) write(dir, name string) (string, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// runtimeSample reads the allocator and GC counters the runtime layer
// reports.
type runtimeSample struct {
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return runtimeSample{
		allocBytes: ms[0].Value.Uint64(),
		allocs:     ms[1].Value.Uint64(),
		gcCPU:      ms[2].Value.Float64(),
		totalCPU:   ms[3].Value.Float64(),
	}
}

// runtimeLayer is the runtime layer's share of one phase of ops operations.
func runtimeLayer(before, after runtimeSample, ops int, m metricSet) {
	n := float64(max(ops, 1))
	m.add("runtime.alloc_bytes_per_op", "B", float64(after.allocBytes-before.allocBytes)/n)
	m.add("runtime.allocs_per_op", "count", float64(after.allocs-before.allocs)/n)
	share := 0.0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		share = (after.gcCPU - before.gcCPU) / cpu
	}
	m.add("runtime.gc_cpu_share", "share", share)
}

// selfTimes is the per-layer self time of a traced phase, summed over
// callers. The generator, the idle wait, the handle, the API or HTTP call
// and the write round trips are each timed on their own; the layers below
// a timed call (api, shard, index, disk; server) split that call's time,
// each taking its span time minus the part its child layers cover.
type selfTimes map[string]time.Duration

// selfSumTolerance is how far the per-layer self times may sum from the
// traced end-to-end time (callers × phase wall time) before the trace is
// declared broken. The sum falls short by the time the callers spend
// outside every timed span: the loop's own bookkeeping between operations
// (two clock reads and an append, ~0.3 µs), which is 1.5-2% of a
// lookup-hot operation on a 2-vCPU Xeon VM and less elsewhere. A sum above the wall
// time means two layers claimed the same time.
const selfSumTolerance = 0.05

// check verifies the traced breakdown: no layer has negative self time
// beyond the tolerance, and the self times sum to the end-to-end time
// within it. It returns the relative gap of the sum.
func (s selfTimes) check(e2e time.Duration) (float64, error) {
	var sum time.Duration
	for layer, d := range s {
		if float64(d) < -selfSumTolerance*float64(e2e) {
			return 0, fmt.Errorf("trace: layer %s has negative self time %v", layer, d)
		}
		sum += d
	}
	gap := float64(sum-e2e) / float64(e2e)
	if gap > selfSumTolerance || gap < -selfSumTolerance {
		return gap, fmt.Errorf("trace: layer self times sum to %v, end-to-end time is %v (gap %.3f > %.2f)", sum, e2e, gap, selfSumTolerance)
	}
	return gap, nil
}
