// Command perfbench is vdbench's end-to-end benchmark. It runs one
// workload in-process through the public entry points of the vdbench
// packages, checks every output, and prints the end-to-end metrics as
// the last line of standard output:
//
//	bash _perfbench/run.sh --workload paper-default --seed 1 --seconds 15 --trace 0
//
// With --trace 1 the same workload runs with a span around every call
// the benchmark makes into a layer, and the last line carries the
// per-layer metrics instead; spans, their summary and a CPU profile are
// written under .perfbench/. --workload all runs every workload in turn,
// each in its own process, and prints a table of the named metrics.
//
// Workloads and metrics are listed in BENCHMARK.json at the repository
// root.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run measures a set-up that needs a
// fresh process, inProcessSetupRepeats how many times one it can repeat
// in-process; setup_s is the median.
const (
	setupRepeats          = 9
	inProcessSetupRepeats = 25
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what one workload measured. Workloads fill it; main turns it
// into the metrics.
type run struct {
	seed    uint64
	seconds float64
	tr      *tracer // nil in untraced runs
	root    string  // checkout root
	outDir  string  // per-run scratch directory under .perfbench/

	setup     []float64 // set-up samples, seconds
	ops       []float64 // untraced operation latencies, ms
	tracedOps []float64 // traced operation latencies, ms (traced runs)
	attempted int
	failed    int
	checkErrs []string

	// named holds the workload's own end-to-end metrics (the names the
	// issue tracker and ROADMAP use), printed in the record line.
	named map[string]metric
	// layer holds per-layer metrics for traced runs.
	layer map[string]float64

	// renders and renderBytes count the traced render calls and their
	// output size.
	renders, renderBytes int

	allocBytes uint64
	peakRSSMB  float64
}

// fail records a failed output check; the run then reports correct=false.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.checkErrs) < 20 {
		r.checkErrs = append(r.checkErrs, msg)
	}
}

// traceOp reports whether operation i of a traced run records spans.
// Traced runs alternate traced and untraced operations, so the tracing
// overhead is the difference between the two halves of one run.
func (r *run) traceOp(i int) *tracer {
	if r.tr != nil && i%2 == 1 {
		return r.tr
	}
	return nil
}

// record adds one operation latency to the half it belongs to.
func (r *run) record(tr *tracer, d time.Duration) {
	ms := float64(d.Nanoseconds()) / 1e6
	if tr != nil {
		r.tracedOps = append(r.tracedOps, ms)
	} else {
		r.ops = append(r.ops, ms)
	}
}

// scenario is one benchmark workload.
type scenario struct {
	name string
	// probe measures one set-up in a fresh process (cold process-wide
	// caches); nil when the workload measures set-up in-process.
	probe func(seed uint64) (time.Duration, error)
	// measure runs the workload: set-up, the timed window, then the
	// output checks.
	measure func(ctx context.Context, r *run) error
}

func workloads() []scenario {
	return []scenario{
		{name: "paper-default", probe: paperSetupProbe, measure: measurePaper},
		{name: "campaign-scale", probe: scaleSetupProbe, measure: measureScale},
		{name: "serve-mixed", measure: measureServe},
		{name: "dist-campaign", measure: measureDist},
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run, or all")
		seed    = fs.Uint64("seed", 1, "workload seed")
		seconds = fs.Float64("seconds", 15, "length of the timed window in seconds")
		trace   = fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
		root    = fs.String("root", ".", "checkout root (holds go.mod and results/)")
		probe   = fs.String("setup-probe", "", "internal: measure one cold set-up of this workload and print seconds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe != "" {
		return runProbe(*probe, *seed, stdout)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if _, err := os.Stat(filepath.Join(*root, "results", "experiments_default.txt")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s is not a vdbench checkout: %v\n", *root, err)
		return 1
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, *root, stdout)
	}
	for _, w := range workloads() {
		if w.name == *name {
			return runOne(w, *seed, *seconds, *trace == 1, *root, stdout)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
	return 2
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func runProbe(name string, seed uint64, stdout io.Writer) int {
	for _, w := range workloads() {
		if w.name == name && w.probe != nil {
			d, err := w.probe(seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: setup probe:", err)
				return 1
			}
			fmt.Fprintf(stdout, "%.9f\n", d.Seconds())
			return 0
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: no setup probe for %q\n", name)
	return 2
}

// probeSetup measures the workload's cold set-up setupRepeats times, each
// in a fresh process so that process-wide caches start empty.
func probeSetup(ctx context.Context, w scenario, r *run) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.CommandContext(ctx, self, "--setup-probe", w.name, "--seed", strconv.FormatUint(r.seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("setup probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return fmt.Errorf("setup probe output %q: %w", out, err)
		}
		r.setup = append(r.setup, v)
	}
	return nil
}

func runOne(w scenario, seed uint64, seconds float64, traced bool, root string, stdout io.Writer) int {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	r := &run{
		seed:    seed,
		seconds: seconds,
		root:    root,
		outDir:  filepath.Join(root, ".perfbench", fmt.Sprintf("%s-seed%d-trace%d", w.name, seed, btoi(traced))),
		named:   map[string]metric{},
		layer:   map[string]float64{},
	}
	if err := os.RemoveAll(r.outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var profile *os.File
	if traced {
		r.tr = newTracer()
		f, err := os.Create(filepath.Join(r.outDir, "cpu.pprof"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		profile = f
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	if w.probe != nil {
		if err := probeSetup(ctx, w, r); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	err := w.measure(ctx, r)
	if profile != nil {
		pprof.StopCPUProfile()
		if cerr := profile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if len(r.ops) == 0 || len(r.setup) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s completed no operation in the window\n", w.name)
		return 1
	}
	for _, msg := range r.checkErrs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", w.name, msg)
	}

	// A statistic over no samples (a layer a short traced run never
	// reached) is NaN, which JSON cannot carry; it reads as 0.
	for k, v := range r.layer {
		r.layer[k] = finite(v)
	}
	for k, m := range r.named {
		r.named[k] = metric{finite(m.Value), m.Unit}
	}
	out := result{
		Correct:   len(r.checkErrs) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	ops := len(r.ops) + len(r.tracedOps)
	e2e := map[string]metric{
		"setup_s":         {median(r.setup), "s"},
		"op_p50_ms":       {median(r.ops), "ms"},
		"alloc_mb_per_op": {float64(r.allocBytes) / 1e6 / float64(ops), "MB"},
		"peak_rss_mb":     {r.peakRSSMB, "MB"},
	}
	if traced {
		sum := r.tr.summarize()
		if err := r.tr.write(filepath.Join(r.outDir, "spans.json"), sum); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		r.layer["trace.unattributed_share"] = sum.Unattributed
		if len(r.tracedOps) > 0 {
			r.layer["trace.overhead_share"] = median(r.tracedOps)/median(r.ops) - 1
		}
		r.layer["trace.spans"] = float64(len(r.tr.spans))
		for _, m := range perLayerMetrics {
			out.Metrics[m.name] = metric{r.layer[m.name], m.unit}
		}
	} else {
		out.Metrics = e2e
	}

	rec := map[string]any{
		"workload":    w.name,
		"seed":        seed,
		"seconds":     seconds,
		"trace":       btoi(traced),
		"env":         environment(root),
		"end_to_end":  e2e,
		"named":       r.named,
		"samples":     map[string]int{"setup": len(r.setup), "ops": len(r.ops), "traced_ops": len(r.tracedOps)},
		"setup_s":     r.setup,
		"op_ms":       sampleOps(r.ops),
		"check_fails": r.checkErrs,
	}
	if traced {
		rec["per_layer"] = r.layer
	}
	recLine, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.WriteFile(filepath.Join(r.outDir, "record.json"), recLine, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	last, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "record %s\n%s\n", recLine, last)
	return 0
}

// runAll runs every workload in its own process (the counters the
// layers expose are process-wide) and prints the named metrics.
func runAll(seed uint64, seconds float64, trace int, root string, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	var rows []string
	for _, name := range workloadNames() {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(trace), "--root", root)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			code = 1
			continue
		}
		var rec struct {
			Named    map[string]metric  `json:"named"`
			EndToEnd map[string]metric  `json:"end_to_end"`
			PerLayer map[string]float64 `json:"per_layer"`
		}
		var last result
		sc := bufio.NewScanner(strings.NewReader(string(out)))
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "record "); ok {
				if err := json.Unmarshal([]byte(rest), &rec); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s: bad record: %v\n", name, err)
					code = 1
				}
			} else if err := json.Unmarshal([]byte(line), &last); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: bad result line: %v\n", name, err)
				code = 1
			}
		}
		if !last.Correct {
			code = 1
		}
		rows = append(rows, fmt.Sprintf("%s  correct=%t attempted=%d failed=%d", name, last.Correct, last.Attempted, last.Failed))
		for _, group := range []map[string]metric{rec.EndToEnd, rec.Named} {
			for _, k := range sortedKeys(group) {
				rows = append(rows, fmt.Sprintf("  %-28s %14.6g %s", k, group[k].Value, group[k].Unit))
			}
		}
		for _, k := range sortedKeys(rec.PerLayer) {
			rows = append(rows, fmt.Sprintf("  %-40s %14.6g", k, rec.PerLayer[k]))
		}
	}
	fmt.Fprintln(stdout, strings.Join(rows, "\n"))
	return code
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// loop runs op back to back until the run's window closes; the last
// operation may end after the deadline. An operation may return a check
// that runs outside its timing. The allocation count and the
// latencies cover only the operations themselves.
func (r *run) loop(ctx context.Context, op func(i int, tr *tracer) (check func(), err error)) error {
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		tr := r.traceOp(i)
		r.attempted++
		// Every operation starts from a collected heap, so that garbage
		// one operation leaves does not bill the next one's collector.
		runtime.GC()
		a0, t0 := memAlloc(), time.Now()
		check, err := op(i, tr)
		d := time.Since(t0)
		r.allocBytes += memAlloc() - a0
		if err != nil {
			return err
		}
		r.record(tr, d)
		if check != nil {
			check()
		}
	}
	r.peakRSSMB = peakRSSMB()
	return nil
}

// memAlloc returns the cumulative bytes allocated by the process.
func memAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// environment is the record's environment block.
func environment(root string) map[string]any {
	env := map[string]any{
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"git_head":   "unknown",
		"git_dirty":  "unknown",
	}
	if self, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(self); err == nil {
			sum := sha256.Sum256(data)
			env["binary_sha256"] = hex.EncodeToString(sum[:])
		}
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return env // a checkout without git metadata
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		env["git_head"] = strings.TrimSpace(string(out))
		if st, err := exec.CommandContext(ctx, "git", "-C", root, "status", "--porcelain").Output(); err == nil {
			env["git_dirty"] = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return env
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sampleOps returns at most 200 operation latencies for the record,
// evenly spaced over the run.
func sampleOps(ops []float64) []float64 {
	if len(ops) <= 200 {
		return ops
	}
	out := make([]float64, 200)
	for i := range out {
		out[i] = ops[i*len(ops)/200]
	}
	return out
}
