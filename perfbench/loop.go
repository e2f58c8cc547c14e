package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The load generator. Every workload drives its operations through one of
// two loops, with at most two callers (the benchmark is sized for a
// two-CPU machine):
//
//   - closed: each caller issues its next operation as soon as the previous
//     one returns, so a slower system receives less load. Latency is timed
//     from the operation's start.
//   - open: operations arrive on one Poisson schedule at a fixed rate, as
//     from independent users, and the callers take them in order like a
//     pool of connections. A read is timed from its due time, so a stall
//     also charges the reads that queue behind it. A write is timed from
//     the moment it is sent: writes are a tenth of the traffic, and timed
//     from their due time their median would follow the generator's
//     lateness rather than the write path. The lateness (start minus due)
//     is recorded as lag.

const callers = 2

// doFunc runs one operation for caller c that was due at due. It reports
// whether the operation was a write, and an error when it failed.
type doFunc func(c int, due time.Time) (write bool, err error)

// loopStats is one caller's record of one phase.
type loopStats struct {
	reads, writes []uint32      // latency in ns, saturating
	lags          []uint32      // open loop only: start minus due, ns
	idle          time.Duration // open loop only: time spent waiting for due times
	failed        int
	start, end    time.Time
}

func (s *loopStats) ops() int { return len(s.reads) + len(s.writes) + s.failed }

func saturate(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

// phase is the merged record of all callers over one phase.
type phase struct {
	per     []*loopStats
	elapsed time.Duration // wall time from the common start to the last caller's exit
	steal   float64       // the host's steal share over the phase (see stealShare)
}

// runPhase drives do from every caller for dur. rate <= 0 runs a closed
// loop; otherwise an open loop at rate operations per second in total.
// capHint pre-sizes the latency buffers so the timed loop does not grow
// them.
func runPhase(dur time.Duration, rate float64, rng *rand.Rand, capHint int, do doFunc) phase {
	per := make([]*loopStats, callers)
	var wg sync.WaitGroup
	cpu0 := readCPUTimes()
	start := time.Now()
	stop := start.Add(dur)
	sched := &schedule{due: start, rate: rate, rng: rng}
	for c := 0; c < callers; c++ {
		st := &loopStats{reads: make([]uint32, 0, capHint), start: start}
		if rate > 0 {
			st.lags = make([]uint32, 0, capHint)
		}
		per[c] = st
		wg.Add(1)
		go func(c int, st *loopStats) {
			defer wg.Done()
			if rate > 0 {
				openLoop(c, st, stop, sched, do)
			} else {
				closedLoop(c, st, stop, do)
			}
			st.end = time.Now()
		}(c, st)
	}
	wg.Wait()
	var end time.Time
	for _, st := range per {
		if st.end.After(end) {
			end = st.end
		}
	}
	return phase{per: per, elapsed: end.Sub(start), steal: stealShare(cpu0, readCPUTimes())}
}

func closedLoop(c int, st *loopStats, stop time.Time, do doFunc) {
	for {
		t0 := time.Now()
		if !t0.Before(stop) {
			return
		}
		write, err := do(c, t0)
		st.add(write, err, time.Since(t0))
	}
}

// schedule hands out the due times of one Poisson arrival process.
type schedule struct {
	mu   sync.Mutex
	due  time.Time
	rate float64
	rng  *rand.Rand
}

func (s *schedule) next() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.due = s.due.Add(time.Duration(s.rng.ExpFloat64() / s.rate * float64(time.Second)))
	return s.due
}

func openLoop(c int, st *loopStats, stop time.Time, sched *schedule, do doFunc) {
	for {
		due := sched.next()
		if !due.Before(stop) {
			return
		}
		// Sleep until due. Go's timer wake-ups on Linux are rounded up to
		// about a millisecond, so an operation may start that late; the
		// lateness counts in its latency and shows as lag. Spinning instead
		// burns CPU the system under test needs on a two-CPU machine, and
		// on a 2-vCPU VM made serve latencies swing by 20-30% between runs.
		if w0 := time.Now(); w0.Before(due) {
			time.Sleep(due.Sub(w0))
			st.idle += time.Since(w0)
		}
		sent := time.Now()
		st.lags = append(st.lags, saturate(sent.Sub(due)))
		write, err := do(c, due)
		from := due
		if write {
			from = sent
		}
		st.add(write, err, time.Since(from))
	}
}

// add files one finished operation and its latency.
func (st *loopStats) add(write bool, err error, d time.Duration) {
	switch {
	case err != nil:
		st.failed++
	case write:
		st.writes = append(st.writes, saturate(d))
	default:
		st.reads = append(st.reads, saturate(d))
	}
}

func (p phase) merged(pick func(*loopStats) []uint32) []uint32 {
	var out []uint32
	for _, st := range p.per {
		out = append(out, pick(st)...)
	}
	return out
}

func (p phase) readLat() []uint32  { return p.merged(func(s *loopStats) []uint32 { return s.reads }) }
func (p phase) writeLat() []uint32 { return p.merged(func(s *loopStats) []uint32 { return s.writes }) }
func (p phase) lagLat() []uint32   { return p.merged(func(s *loopStats) []uint32 { return s.lags }) }

func (p phase) ops() (n int) {
	for _, st := range p.per {
		n += st.ops()
	}
	return n
}

func (p phase) failed() (n int) {
	for _, st := range p.per {
		n += st.failed
	}
	return n
}

// opsPerSec is completed operations over the phase's wall time.
func (p phase) opsPerSec() float64 {
	return float64(p.ops()-p.failed()) / p.elapsed.Seconds()
}

// quantileUs reports the q-quantile of latencies in microseconds,
// interpolating between order statistics; 0 for an empty sample.
func quantileUs(lat []uint32, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]uint32(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	v := float64(s[i])
	if i+1 < len(s) {
		v += (pos - float64(i)) * (float64(s[i+1]) - float64(s[i]))
	}
	return v / 1e3
}

// rung is one open-loop rate of a ladder and its outcome.
type rung struct {
	rate     float64 // offered ops/s
	achieved float64 // completed ops/s
	readP50  float64 // µs from due time
	readP99  float64
	tailLag  float64 // µs, mean lag over the last tenth of operations
	failed   int
	steal    float64
	ok       bool
}

// judge decides whether a ladder rung met the latency limit with no
// failures and no growing backlog: the generator must not end the rung
// further behind schedule than the limit itself.
func judge(rate float64, p phase, limitUs float64) rung {
	lat := p.readLat()
	r := rung{rate: rate, achieved: p.opsPerSec(), readP50: quantileUs(lat, 0.5), readP99: quantileUs(lat, 0.99), failed: p.failed(), steal: p.steal}
	var sum float64
	var n int
	for _, st := range p.per {
		tail := st.lags[len(st.lags)*9/10:]
		for _, v := range tail {
			sum += float64(v)
		}
		n += len(tail)
	}
	if n > 0 {
		r.tailLag = sum / float64(n) / 1e3
	}
	r.ok = r.failed == 0 && r.readP99 <= limitUs && r.tailLag <= limitUs
	return r
}

// ladder is an open-loop capacity search anchored at the throughput the
// closed loop has just measured on the same store: rungs at
// ladderFrom·anchor, ·ladderStep, ·ladderStep², ... (0.6 to 1.49 times the
// anchor), each run for dur, until a rung fails or ladderRungs have run.
// Above capacity the callers fall behind and work through the backlog back
// to back, so a rung's achieved rate is the capacity; the backlog grows by
// the overload times dur, and once it passes limitUs the rung fails and the
// climb ends. Anchored, every rung lands near the capacity whatever the
// host's speed.
type ladder struct {
	dur     time.Duration
	limitUs float64 // read p99 and end-of-rung lag limit
}

const (
	ladderFrom  = 0.6
	ladderStep  = 1.2
	ladderRungs = 6
)

// climb runs the ladder from anchor ops/s; runRung drives rung i at rate
// for the ladder's duration and returns its record.
func (l ladder) climb(anchor float64, runRung func(i int, rate float64, dur time.Duration) phase) []rung {
	var rs []rung
	rate := ladderFrom * anchor
	for i := 0; i < ladderRungs; i++ {
		r := judge(rate, runRung(i, rate, l.dur), l.limitUs)
		rs = append(rs, r)
		if !r.ok {
			break
		}
		rate *= ladderStep
	}
	return rs
}

// ladderSet collects the ladder climbed after each set-up.
type ladderSet struct {
	rungs [][]rung
}

func (ls *ladderSet) add(rs []rung) { ls.rungs = append(ls.rungs, rs) }

// steal is each ladder's mean rung steal share.
func (ls *ladderSet) steal() []float64 {
	var out []float64
	for _, rs := range ls.rungs {
		var sum float64
		for _, r := range rs {
			sum += r.steal
		}
		out = append(out, sum/float64(max(len(rs), 1)))
	}
	return out
}

// maxOKRate is the median over the quiet ladders (see quiet) of each one's
// maxOKRate: one ladder per set-up, so that, like the closed-loop windows,
// the metric samples several stretches of the run instead of one.
func (ls *ladderSet) maxOKRate() float64 {
	var xs []float64
	for _, i := range quiet(ls.steal()) {
		xs = append(xs, maxOKRate(ls.rungs[i]))
	}
	return median(xs)
}

func (ls *ladderSet) notes(oc *outcome, limitUs float64) {
	var out [][]map[string]any
	for _, rs := range ls.rungs {
		out = append(out, rungNotes(rs, limitUs))
	}
	oc.notes["ladders"] = out
	oc.notes["ladders_kept"] = quiet(ls.steal())
}

func rungNotes(rs []rung, limitUs float64) []map[string]any {
	var out []map[string]any
	for _, r := range rs {
		out = append(out, map[string]any{
			"rate": r.rate, "achieved": r.achieved, "read_p50_us": r.readP50, "read_p99_us": r.readP99,
			"tail_lag_us": r.tailLag, "failed": r.failed, "ok": r.ok, "limit_us": limitUs, "steal_share": r.steal,
		})
	}
	return out
}

// maxOKRate is the highest achieved rate among the rungs that passed with
// every lower rung passing too, or 0 when the lowest rung failed. The rungs
// past capacity achieve the capacity, so this is the most the system
// delivered while its read p99 and backlog stayed under the limit.
func maxOKRate(rs []rung) float64 {
	best := 0.0
	for _, r := range rs {
		if !r.ok {
			break
		}
		best = max(best, r.achieved)
	}
	return best
}

// windowSet collects the closed-loop windows a run takes its throughput
// and latency metrics from.
type windowSet struct {
	ops, steal    []float64
	reads, writes [][]uint32
}

func (ws *windowSet) add(p phase) {
	ws.ops = append(ws.ops, p.opsPerSec())
	ws.steal = append(ws.steal, p.steal)
	ws.reads = append(ws.reads, p.readLat())
	ws.writes = append(ws.writes, p.writeLat())
}

// quietSteal is the steal share up to which a window always counts as
// quiet: two clock ticks in a 0.4 s window on two CPUs.
const quietSteal = 0.03

// quiet lists the windows (or ladders) the metrics come from, given each
// one's steal share. On a shared VM the hypervisor now and then runs other
// guests on the CPUs this one wants (steal time, see stealShare). A window
// in which it did measures the neighbours more than the code: on a 2-vCPU
// VM a window with 18% steal had a write p99 of 14 ms against 1-4 ms in
// the windows around it, and runs with 17-23% steal lost a quarter of
// their throughput and doubled their read p99. A window is kept when its
// steal share is at most quietSteal or at most the median window's, so at
// least half of the windows are kept, and all of them on a quiet host.
func quiet(steal []float64) []int {
	lim := max(median(steal), quietSteal)
	var keep []int
	for i, s := range steal {
		if s <= lim {
			keep = append(keep, i)
		}
	}
	return keep
}

func (ws *windowSet) quiet() []int { return quiet(ws.steal) }

// medianOver is the median over the quiet windows of f(window).
func (ws *windowSet) medianOver(f func(i int) float64) float64 {
	var xs []float64
	for _, i := range ws.quiet() {
		xs = append(xs, f(i))
	}
	return median(xs)
}

func (ws *windowSet) opsPerSec() float64 {
	return ws.medianOver(func(i int) float64 { return ws.ops[i] })
}

// lastOpsPerSec is the median throughput of the last k windows, the
// anchor of the ladder that follows them.
func (ws *windowSet) lastOpsPerSec(k int) float64 {
	return median(ws.ops[len(ws.ops)-k:])
}

// readQuantile is the median over the quiet windows of each window's
// q-quantile read latency, in µs.
func (ws *windowSet) readQuantile(q float64) float64 {
	return ws.medianOver(func(i int) float64 { return quantileUs(ws.reads[i], q) })
}

// writeQuantile is the q-quantile, in µs, of the quiet windows' write
// latencies pooled: writes are too few for a quantile per window.
func (ws *windowSet) writeQuantile(q float64) float64 {
	return quantileUs(ws.quietWrites(), q)
}

func (ws *windowSet) quietWrites() []uint32 {
	var all []uint32
	for _, i := range ws.quiet() {
		all = append(all, ws.writes[i]...)
	}
	return all
}

// notes records every window, so a reader can see what was kept.
func (ws *windowSet) notes(oc *outcome) {
	var p50, p99, n []float64
	for i := range ws.reads {
		p50 = append(p50, quantileUs(ws.reads[i], 0.5))
		p99 = append(p99, quantileUs(ws.reads[i], 0.99))
		n = append(n, float64(len(ws.reads[i])))
	}
	oc.notes["windows"] = map[string]any{
		"ops_per_s": round3(ws.ops), "read_p50_us": round3(p50), "read_p99_us": round3(p99), "reads": n,
		"steal_share": round3(ws.steal), "kept": ws.quiet(),
	}
}

// round3 rounds figures for the notes.
func round3(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}
