package main

import (
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
)

// The timing wrapper must implement gpu.IdleAware exactly when the wrapped
// scheduler does: the engine type-asserts it, and hiding it would turn off
// idle replay in the traced pass only.
func TestWrapperIdleAwareParity(t *testing.T) {
	cfg := config.KeplerK20c()
	for _, info := range core.Schedulers() {
		s := info.New(&cfg)
		_, inner := s.(gpu.IdleAware)
		w := wrapScheduler(s, &schedStats{})
		_, outer := w.(gpu.IdleAware)
		if inner != outer {
			t.Errorf("%s: scheduler IdleAware=%v, wrapper IdleAware=%v", info.Name, inner, outer)
		}
		if w.Name() != s.Name() {
			t.Errorf("%s: wrapper name %q", info.Name, w.Name())
		}
	}
}

// A traced pass (wrapped schedulers, queue and span hooks) must simulate
// exactly what an untraced pass does, in any cell order.
func TestTracedDigestMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs repro-small twice")
	}
	cells := reproCells()
	plain, _, err := reproPass(cells, permutation(1, len(cells)), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(filepath.Join(t.TempDir(), "cpu.pprof"))
	traced, _, err := reproPass(cells, permutation(2, len(cells)), tr)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := reproDigest(plain), reproDigest(traced); a != b {
		t.Fatalf("untraced digest %s, traced digest %s", a, b)
	}
	var selects int64
	for _, c := range traced {
		if c.err != nil {
			t.Errorf("cell %s: %v", c.key, c.err)
		}
		selects += c.sched.selects
	}
	if selects == 0 {
		t.Error("traced pass recorded no Select calls")
	}
	if len(tr.seconds("gpu.simulate")) == 0 {
		t.Error("traced pass recorded no gpu.simulate spans")
	}
}

func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

// The profile reader decodes what runtime/pprof writes.
func TestProfileShares(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	stacks, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range stacks {
		if onStack(st.funcs, []string{"laperm/perfbench.spin"}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no sample has laperm/perfbench.spin on its stack (%d stacks)", len(stacks))
	}
	shares, err := profileShares(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := shares["mem.self_share"]; v.N == 0 || v.V != 0 {
		t.Errorf("mem.self_share = %+v, want 0 over a non-empty profile", v)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"laperm/internal/mem.(*mshrTable).lookup": "laperm/internal/mem",
		"laperm/internal/serve.writeJSON":         "laperm/internal/serve",
		"runtime.mallocgc":                        "runtime",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
