// Command perfbench is the repository benchmark. It runs one named workload
// against the simulator's public entry points (exp.Pool/exp.RunCell, the
// lapermd server driven by internal/client, spec.SweepSpec.Expand and
// spec.Hash), checks that the outputs are correct, and prints every metric
// by name with its unit and sample count. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload repro-small --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the run
// measures the workload untraced, then again with a CPU profile, spans and
// engine hooks, and reports the per-layer set plus the tracing overhead. See
// README.md for every metric and the layer → end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one named traffic mix. measure runs set-up, the timed phase
// and the output checks; tr is nil on an untraced pass.
type workload struct {
	name    string
	why     string
	measure func(e *env, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{"repro-small", "in-process paper reproduction at small scale: the engine layers do the work", measureRepro},
	{"sweep-overlap", "two tenants' overlapping tiny sweeps through lapermd: serve write path, dedupe, cache Put", measureSweeps},
	{"runs-cached", "closed loop of cache-hit runs and result fetches: serve read path, no simulation", measureCached},
}

// env is what every workload receives from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	out     string // scratch directory for caches, traces and profiles
	self    string // this executable, for set-up probes
}

// The end-to-end metrics every workload reports. Their meaning per workload
// is documented in README.md.
const (
	mThroughput = "throughput_per_s"
	mLatP50     = "latency_s_p50"
	mCompleted  = "completed_ratio"
	mSetup      = "setup_s"
	mRSS        = "peak_rss_mb"
)

var endToEnd = []struct{ name, unit string }{
	{mThroughput, "1/s"}, {mLatP50, "s"},
	{mCompleted, "ratio"}, {mSetup, "s"}, {mRSS, "MB"},
}

// overheadMetrics are the end-to-end metrics whose traced/untraced ratio is
// reported as the tracing overhead.
var overheadMetrics = []string{mThroughput, mLatP50}

// value is one reported number with its unit and the samples behind it.
type value struct {
	V    float64
	Unit string
	N    int
}

// outcome is one measured pass of a workload.
type outcome struct {
	attempted, failed int
	// problems lists failed output checks; any makes the run incorrect.
	problems []string
	// digest summarizes the simulated statistics; equal across seeds and
	// across traced and untraced passes.
	digest string
	e2e    map[string]value
	layer  map[string]value
	// notes are human-readable report lines (model outputs, digests).
	notes []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]value{}, layer: map[string]value{}}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: repro-small, sweep-overlap or runs-cached")
	seed := flag.Int64("seed", 1, "seed that permutes cell and request order (never cell contents)")
	seconds := flag.Int("seconds", 30, "how long the timed phase measures")
	traced := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for caches, traces and profiles")
	commit := flag.String("commit", "", "commit being measured (default: a digest of the source tree)")
	probe := flag.String("setup-probe", "", "internal: run only the named workload's set-up and print its seconds")
	flag.Parse()

	if *probe != "" {
		return runProbe(*probe, *out)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, out: *out, self: self}
	info := describeHost(*commit, *seed, w.name, *traced == 1)
	fmt.Printf("# perfbench %s: %s\n", w.name, w.why)
	fmt.Printf("# env %s\n", mustJSON(info))

	base, err := w.measure(e, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res := base
	metrics := map[string]value{}
	if *traced == 0 {
		for _, m := range endToEnd {
			metrics[m.name] = base.e2e[m.name]
		}
	} else {
		profPath := filepath.Join(e.out, fmt.Sprintf("%s-seed%d.cpu.pprof", w.name, e.seed))
		tr := newTracer(profPath)
		res, err = w.measure(e, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s (traced): %v\n", w.name, err)
			return 1
		}
		if res.digest != base.digest {
			res.problem("traced digest %s differs from untraced %s", res.digest, base.digest)
		}
		res.problems = append(base.problems, res.problems...)
		res.attempted += base.attempted
		res.failed += base.failed
		shares, err := profileShares(profPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		for k, v := range shares {
			res.layer[k] = v
		}
		for _, m := range overheadMetrics {
			u, t := base.e2e[m], res.e2e[m]
			ratio := 0.0
			if u.V != 0 {
				ratio = t.V / u.V
			}
			res.layer["trace.overhead."+m] = value{ratio, "ratio", 1}
		}
		spanPath := filepath.Join(e.out, fmt.Sprintf("%s-seed%d.trace.json", w.name, e.seed))
		if err := tr.write(spanPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("# trace: spans %s, cpu profile %s\n", spanPath, profPath)
		for _, m := range perLayer {
			v, ok := res.layer[m.name]
			if !ok {
				v = value{0, m.unit, 0}
			}
			v.Unit = m.unit
			metrics[m.name] = v
		}
	}

	for _, n := range res.notes {
		fmt.Println("# " + n)
	}
	printMetrics("end-to-end (untraced)", base.e2e)
	if *traced == 1 {
		printMetrics("end-to-end (traced)", res.e2e)
		printMetrics("per-layer (traced)", metrics)
	}
	for _, p := range res.problems {
		fmt.Println("# CHECK FAILED: " + p)
	}
	correct := len(res.problems) == 0
	sum := summary{Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for k, v := range metrics {
		sum.Metrics[k] = jsonMetric{v.V, v.Unit}
	}
	record := map[string]any{"env": info, "summary": sum, "samples": sampleCounts(metrics)}
	if res.digest != "" {
		record["digest"] = res.digest
	}
	recPath := filepath.Join(e.out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, e.seed, *traced))
	if err := os.WriteFile(recPath, append(mustJSON(record), '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(mustJSON(sum)))
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func printMetrics(title string, m map[string]value) {
	fmt.Printf("# %s\n", title)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := m[k]
		fmt.Printf("#   %-40s %14.6g %-6s n=%d\n", k, v.V, v.Unit, v.N)
	}
}

func sampleCounts(m map[string]value) map[string]int {
	n := make(map[string]int, len(m))
	for k, v := range m {
		n[k] = v.N
	}
	return n
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
