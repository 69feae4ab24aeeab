package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is recorded with every result so a number can be tied to the
// machine, toolchain and source it was measured on.
type hostInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func describeHost(commit string, seed int64, workload string, traced bool) hostInfo {
	if commit == "" {
		commit = treeDigest(".")
	}
	return hostInfo{
		Workload: workload, Seed: seed, Traced: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), GoVersion: runtime.Version(), Commit: commit,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or GOARCH where
// that file does not exist.
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

// treeDigest names the source being measured when no commit is given: a
// SHA-256 over the paths and contents of every .go and go.mod file under
// root, skipping hidden directories. It returns "" when root holds no Go
// module. It is a best-effort name: an unreadable file only changes the
// digest, so walk and read errors are skipped.
func treeDigest(root string) string {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return ""
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(p))
		io.Copy(h, f)
		f.Close()
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is a snapshot of the Go runtime's GC and allocation
// counters, for runtime.gc_share and runtime.alloc_mb_per_op.
type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{f(s[0].Value), f(s[1].Value), f(s[2].Value)}
}

// runtimeLayer records the GC share and allocation per operation between
// two snapshots.
func runtimeLayer(o *outcome, before, after runtimeSample, ops int) {
	if d := after.totalCPU - before.totalCPU; d > 0 {
		o.layer["runtime.gc_share"] = value{(after.gcCPU - before.gcCPU) / d, "ratio", 1}
	}
	if ops > 0 {
		o.layer["runtime.alloc_mb_per_op"] = value{(after.allocBytes - before.allocBytes) / float64(ops) / 1e6, "MB", ops}
	}
}

// probeSetups runs the workload's set-up n times, each in a fresh process
// (so memoized program builds are paid again), and returns each probe's
// set-up seconds and its own kernels.build_s.
func probeSetups(e *env, workload string, n int) (setup, build []float64, err error) {
	for i := 0; i < n; i++ {
		cmd := exec.Command(e.self, "-setup-probe", workload, "-out", e.out)
		cmd.Stderr = os.Stderr
		outb, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up probe %d: %w", i, err)
		}
		fields := strings.Fields(string(outb))
		if len(fields) != 2 {
			return nil, nil, fmt.Errorf("set-up probe %d: unexpected output %q", i, outb)
		}
		s, err1 := strconv.ParseFloat(fields[0], 64)
		b, err2 := strconv.ParseFloat(fields[1], 64)
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("set-up probe %d: unexpected output %q", i, outb)
		}
		setup, build = append(setup, s), append(build, b)
	}
	return setup, build, nil
}

// runProbe is the -setup-probe entry point: it performs one workload's
// set-up in this fresh process and prints "<setup seconds> <build seconds>".
func runProbe(workload, out string) int {
	var setup, build time.Duration
	var err error
	switch workload {
	case "repro-small":
		build, err = buildPrograms(reproWorkloads, smallScale)
		setup = build
	case "sweep-overlap":
		setup, build, err = sweepSetupOnce(out)
	default:
		err = fmt.Errorf("no set-up probe for %q", workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up probe:", err)
		return 1
	}
	fmt.Printf("%.9f %.9f\n", setup.Seconds(), build.Seconds())
	return 0
}
