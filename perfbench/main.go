// Command perfbench is the repository's benchmark: one workload per run,
// generated from a seed, every answer checked against a trivial reference,
// and every metric printed by name with its unit. It is a client from
// outside the program: it times calls into the public functions of fesia,
// internal/core, internal/graph and internal/serve in-process, and drives
// cmd/fesiaserve over HTTP as a child process.
//
// Run it from the repository root through its launcher, which builds it and
// fesiaserve from source first:
//
//	bash perfbench/run.sh --workload pairs --seed 1 --seconds 50 --trace 0
//
// BENCHMARK.json gates pairs and triangles. The search workload runs the
// same way but is not gated: on a shared 2-vCPU virtual machine its HTTP
// latencies and max_qps moved by 30-100% between runs with the hypervisor's
// steal, more than any bound the gate allows.
//
// With --trace 0 the last line of output carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a separate traced run,
// whose spans are written to the work directory when the run ends. The
// lines before it record the machine and the layer breakdown. The exit code
// is non-zero when any answer was wrong or the run was invalid.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fesia"
)

// metricDef is one metric as BENCHMARK.json declares it. moves names the
// end-to-end metric and workload a per-layer metric should move.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEnd are the metrics every untraced run prints, on every workload.
// fail_frac is not among them because it is zero on a correct run; it is
// the result's failed/attempted.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "mem_bytes_per_elem", unit: "B/elem", better: "lower", bound: 0.05},
	{name: "elems_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "p50_ms.light", unit: "ms", better: "lower", bound: 0.25},
	{name: "tail_ms.light", unit: "ms", better: "lower", bound: 0.25},
	{name: "p50_ms.busy", unit: "ms", better: "lower", bound: 0.25},
	{name: "tail_ms.busy", unit: "ms", better: "lower", bound: 0.25},
	{name: "max_qps", unit: "1/s", better: "higher", bound: 0.25},
}

// perLayer are the metrics every traced run prints.
var perLayer = []metricDef{
	{name: "fesia.build_ns_per_elem", unit: "ns/elem", better: "lower", moves: "setup_s on all"},
	{name: "bitmap.filter_ms_per_pair", unit: "ms", better: "lower", moves: "elems_per_s, op_p50_ms on pairs (1% class)"},
	{name: "bitmap.segpairs_per_match", unit: "ratio", better: "lower", moves: "elems_per_s on pairs"},
	{name: "kernels.segment_ms_per_pair", unit: "ms", better: "lower", moves: "elems_per_s on pairs (50% class), triangles"},
	{name: "kernels.mean_segment_len", unit: "count", better: "lower", moves: "elems_per_s on pairs, triangles"},
	{name: "core.batch_us_per_vertex", unit: "us", better: "lower", moves: "elems_per_s on triangles"},
	{name: "core.hash_stage_us", unit: "us", better: "lower", moves: "p50_ms.*, tail_ms.* on search (not gated); elems_per_s on triangles"},
	{name: "core.hash_scan_us", unit: "us", better: "lower", moves: "p50_ms.*, tail_ms.* on search (not gated); elems_per_s on triangles"},
	{name: "core.hash_survivor_frac", unit: "frac", better: "lower", moves: "p50_ms.*, tail_ms.* on search (not gated); elems_per_s on triangles"},
	{name: "core.kway_us", unit: "us", better: "lower", moves: "tail_ms.busy on search (not gated)"},
	{name: "core.vs_merge.sel01", unit: "ratio", better: "lower", moves: "elems_per_s, op_p50_ms on pairs"},
	{name: "core.vs_merge.sel50", unit: "ratio", better: "lower", moves: "elems_per_s, op_p50_ms on pairs"},
	{name: "core.vs_merge.triangles", unit: "ratio", better: "lower", moves: "elems_per_s, op_p50_ms on triangles"},
	{name: "planner.hash_share", unit: "frac", better: "higher", moves: "p50_ms.*, tail_ms.* on search (not gated); elems_per_s on triangles"},
	{name: "serve.server_ms_p50", unit: "ms", better: "lower", moves: "p50_ms.* on search (not gated)"},
	{name: "serve.server_ms_p99", unit: "ms", better: "lower", moves: "tail_ms.* on search (not gated)"},
	{name: "serve.queue_ms_p99", unit: "ms", better: "lower", moves: "tail_ms.busy, max_qps on search (not gated)"},
	{name: "serve.straggler_ratio", unit: "ratio", better: "lower", moves: "tail_ms.busy, max_qps on search (not gated)"},
	{name: "serve.reject_frac", unit: "frac", better: "lower", moves: "fail_frac (failed/attempted) on search (not gated)"},
	{name: "fesiaserve.http_ms_p50", unit: "ms", better: "lower", moves: "p50_ms.light on search (not gated)"},
	{name: "bench.gen_late_ms_p99", unit: "ms", better: "lower", moves: "validity of search, not the program"},
	{name: "bench.trace_overhead", unit: "ratio", better: "lower", moves: "nothing: traced over untraced op p50 of this run"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark invocation.
type run struct {
	workload string
	seed     int64
	budget   time.Duration // measured time, split between the run's phases
	tr       *tracer       // nil unless traced
	root     string        // repository checkout
	server   string        // fesiaserve binary
	work     string        // scratch directory inside the checkout
	nproc    int

	metrics map[string]metric
	units   map[string]string

	attempted, failed, wrong atomic.Int64
}

// set records a metric; its unit comes from the declared tables.
func (r *run) set(name string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: r.units[name]}
	fmt.Printf("metric %-28s %14.6g %s\n", name, v, r.units[name])
}

// note prints one line of run detail.
func (r *run) note(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// check counts one operation and whether its answer matched the reference.
func (r *run) check(ok bool) {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
		r.wrong.Add(1)
	}
}

// refused counts one operation that got no answer.
func (r *run) refused() {
	r.attempted.Add(1)
	r.failed.Add(1)
}

// phase returns share of the measured budget.
func (r *run) phase(share float64) time.Duration {
	return time.Duration(share * float64(r.budget))
}

var workloads = map[string]func(*run) error{
	"pairs":     runPairs,
	"triangles": runTriangles,
	"search":    runSearch,
}

func main() {
	workload := flag.String("workload", "", "workload: pairs, triangles or search")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 50, "measured seconds")
	traced := flag.Int("trace", 0, "1 for the traced run that prints per-layer metrics")
	root := flag.String("root", ".", "repository checkout")
	server := flag.String("server", "", "fesiaserve binary")
	work := flag.String("work", "", "scratch directory")
	flag.Parse()
	if err := realMain(*workload, *seed, *seconds, *traced == 1, *root, *server, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func realMain(workload string, seed int64, seconds int, traced bool, root, server, work string) error {
	fn := workloads[workload]
	if fn == nil {
		return fmt.Errorf("unknown workload %q (pairs, triangles or search)", workload)
	}
	if seconds < 1 || server == "" || work == "" {
		return errors.New("need --seconds >= 1, -server and -work")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	r := &run{
		workload: workload, seed: seed, budget: time.Duration(seconds) * time.Second,
		root: root, server: server, work: work, nproc: runtime.NumCPU(),
		metrics: map[string]metric{}, units: map[string]string{},
	}
	want := endToEnd
	if traced {
		r.tr = newTracer()
		want = perLayer
	}
	for _, d := range want {
		r.units[d.name] = d.unit
	}
	meta, _ := json.Marshal(metadata(r, traced))
	fmt.Printf("meta %s\n", meta)
	steal0, total0 := cpuSteal()
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		r.note("host: %.2f%% of CPU time stolen by the hypervisor during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if traced {
		path := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
		if err := writeSpans(path, r.tr.spans); err != nil {
			return err
		}
		r.note("spans %d written to %s", len(r.tr.spans), path)
		for _, sum := range summarize(r.tr.spans) {
			r.note("span %-36s %7d spans, total %10.2f ms, self %10.2f ms", sum.Name, sum.Count, sum.TotalMs, sum.SelfMs)
		}
		for _, d := range perLayer {
			r.note("layer %-28s should move %s", d.name, d.moves)
		}
	}
	res := result{
		Correct:   r.wrong.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   r.metrics,
	}
	r.note("fail_frac %.6g (%d failed of %d attempted, %d wrong answers)",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted, r.wrong.Load())
	var missing []string
	for _, d := range want {
		m, ok := r.metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!traced && m.Value <= 0) {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics missing or not measurable: %s", strings.Join(missing, ", "))
	}
	if res.Attempted == 0 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d wrong answers", r.wrong.Load())
	}
	return nil
}

// metadata describes the machine and the code a result belongs to.
func metadata(r *run, traced bool) map[string]any {
	return map[string]any{
		"workload":      r.workload,
		"seed":          r.seed,
		"seconds":       r.budget.Seconds(),
		"trace":         traced,
		"cpu":           cpuModel(),
		"backend":       fesia.Backend(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"go":            runtime.Version(),
		"commit":        gitCommit(r.root),
		"source_sha256": sourceDigest(r.root),
	}
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

// cpuSteal returns the steal and total jiffies of /proc/stat, zero where
// the host does not report them. Steal is the time other tenants of a
// virtual machine's host took from it, the main source of noise there.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// gitCommit reads HEAD from the checkout's .git directory, or returns
// "unknown" when the checkout is not a git repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources, assembly and module files of the
// checkout, so results from checkouts without git history still name the
// code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		ext := filepath.Ext(path)
		if d.IsDir() || (ext != ".go" && ext != ".s" && ext != ".mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// multisetHash is an order-independent hash of a set of elements, used to
// check materialized output against the reference without sorting it.
func multisetHash(xs []uint32) uint64 {
	var s uint64
	for _, x := range xs {
		z := uint64(x) + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s += z ^ (z >> 31)
	}
	return s
}

// equalSorted reports whether got, sorted in place, equals want.
func equalSorted(got, want []uint32) bool {
	slices.Sort(got)
	return slices.Equal(got, want)
}
