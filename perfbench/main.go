// Command perfbench is the repository's benchmark: three workloads that
// stress different layers of the stack, a fixed set of end-to-end metrics
// measured with tracing off, and a separate traced run that breaks each
// operation down by layer. See NOTES.md for what each workload is for and
// how every metric is computed.
//
//	bash perfbench/run.sh --workload lookup-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result: a JSON object with
// correct, attempted, failed and metrics. The line before it is the
// environment stamp and the run's notes.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what a workload reports: its metrics, its operation counts,
// and notes that go into the environment line.
type outcome struct {
	metrics   metricSet
	attempted int
	failed    int // failed or refused operations
	wrong     int // answers the oracle rejected
	notes     map[string]any
}

// endToEnd and perLayer name every metric a run reports, with its unit:
// the end-to-end set without tracing, the per-layer set with it.
var endToEnd = map[string]string{
	"setup_s": "s", "ops_per_s": "1/s", "read_p50_us": "us", "read_p99_us": "us",
	"max_ok_rate_ops_s": "1/s", "ok_share": "share",
	"pages_per_op": "pages", "write_amp": "ratio", "bytes_per_record": "B", "mem_peak_mb": "MB",
}

var perLayer = map[string]string{
	"disk.pool_hit_share": "share", "disk.fetch_ns_per_page": "ns", "disk.fetch_share": "share",
	"disk.reads_per_op": "pages", "index.list_pages_per_op": "pages", "index.path_pages_per_op": "pages",
	"index.useful_io_share": "share", "index.self_us_per_op": "us", "index.bound_ratio_mean": "ratio",
	"index.bound_ratio_max": "ratio", "api.self_us_per_op": "us", "runtime.alloc_bytes_per_op": "B",
	"runtime.allocs_per_op": "count", "runtime.gc_cpu_share": "share", "handle.acquire_ns": "ns",
	"server.self_us_per_req": "us", "server.resp_bytes_per_read": "B", "server.denied_share": "share",
	"shard.fanout_per_read": "count", "shard.self_us_per_read": "us", "lsm.insert_writes_per_op": "pages",
	"lsm.maint_ms_per_1k_inserts": "ms", "lsm.maint_writes_per_insert": "pages", "lsm.insert_p50_us": "us", "lsm.insert_p99_us": "us", "loadgen.lag_p99_us": "us",
	"loadgen.self_us_per_op": "us", "loadgen.trace_overhead_share": "share", "trace.self_sum_gap_share": "share",
}

// complete checks that m holds exactly the metrics of want with their
// units. A traced run reports 0 for the layers its workload does not pass
// through (no server, shard or write tier on the library workloads).
func (m metricSet) complete(want map[string]string, zeroFill bool) error {
	for name, unit := range want {
		got, ok := m[name]
		if !ok && zeroFill {
			m.add(name, unit, 0)
			continue
		}
		if !ok || got.Unit != unit {
			return fmt.Errorf("metric %s missing or not in %s", name, unit)
		}
	}
	for name := range m {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}

func newOutcome() *outcome { return &outcome{metrics: metricSet{}, notes: map[string]any{}} }

// runCfg is one invocation.
type runCfg struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tmp      string // temporary directory for index files, removed at exit
	out      string // where span dumps go
}

func (c runCfg) measure() time.Duration { return time.Duration(c.seconds) * time.Second }

var workloads = map[string]func(runCfg) (*outcome, error){
	"lookup-hot":  lookupHot.runWorkload,
	"scan-cold":   scanCold.runWorkload,
	"serve-mixed": runServeMixed,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fl.String("workload", "", "workload: lookup-hot, scan-cold or serve-mixed")
		seed     = fl.Int64("seed", 1, "input seed")
		seconds  = fl.Int("seconds", 10, "measured seconds")
		trace    = fl.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	)
	if err := fl.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg := runCfg{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, tmp: tmp, out: out}

	oc, err := fn(cfg)
	if err != nil {
		return err
	}
	attempted := max(oc.attempted, 1)
	bad := oc.failed + oc.wrong
	if !cfg.trace {
		// The share of operations answered, and answered correctly: one
		// minus failed_share, so that the metric is never zero.
		oc.metrics.add("ok_share", "share", 1-float64(bad)/float64(attempted))
		err = oc.metrics.complete(endToEnd, false)
	} else {
		err = oc.metrics.complete(perLayer, true)
	}
	if err != nil {
		return err
	}
	env := stamp(cfg)
	env["notes"] = oc.notes
	env["wrong_answers"] = oc.wrong
	if err := printJSON(stdout, env); err != nil {
		return err
	}
	res := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{Correct: oc.wrong == 0 && oc.failed == 0, Attempted: attempted, Failed: bad, Metrics: oc.metrics}
	if err := printJSON(stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%d failed operations, %d wrong answers", oc.failed, oc.wrong)
	}
	return nil
}

var started = time.Now()

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.2fs: %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// stamp is the environment every result carries.
func stamp(cfg runCfg) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"traced":     cfg.trace,
		"commit":     commit(),
		"source":     sourceDigest(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"page_size":  pageSize,
		// The share of CPU time the hypervisor gave other guests while
		// this run wanted it: high values mark a run on a contended host.
		"steal_share": stealShare(cpuAtStart, readCPUTimes()),
	}
}

var cpuAtStart = readCPUTimes()

// readCPUTimes reads the machine-wide CPU time counters (user, nice,
// system, idle, iowait, irq, softirq, steal) from /proc/stat.
func readCPUTimes() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	var out []float64
	for _, v := range f[1:9] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil
		}
		out = append(out, x)
	}
	return out
}

// stealShare is steal time over all CPU time between two readings.
func stealShare(a, b []float64) float64 {
	if len(a) != 8 || len(b) != 8 {
		return 0
	}
	var total float64
	for i := range a {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0
	}
	return (b[7] - a[7]) / total
}

// commit names the checked-out revision when the tree is a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the module's Go sources, which identifies the code
// under test even where the checkout carries no git metadata.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// quiesce starts a set-up from a settled machine: no garbage from the
// previous one, and no dirty pages of its files still being written back.
func quiesce() {
	runtime.GC()
	syscall.Sync()
}

// median of a small sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
