package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"laperm/internal/config"
	"laperm/internal/kernels"
	"laperm/internal/smx"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/exp/ -run Golden -update
var update = flag.Bool("update", false, "rewrite golden result files")

// goldenCell is one matrix cell's snapshot: the per-cell metrics future
// scheduler or memory-hierarchy changes are most likely to disturb. Floats
// are stored pre-formatted so the files diff cleanly and comparisons are
// exact.
type goldenCell struct {
	Workload       string `json:"workload"`
	Model          string `json:"model"`
	Scheduler      string `json:"scheduler"`
	Cycles         uint64 `json:"cycles"`
	ThreadInsts    int64  `json:"thread_insts"`
	IPC            string `json:"ipc"`
	L1HitRate      string `json:"l1_hit_rate"`
	L2HitRate      string `json:"l2_hit_rate"`
	Kernels        int    `json:"kernels"`
	DynamicKernels int    `json:"dynamic_kernels"`
	Blocks         int    `json:"blocks"`
	QueueOverflows int64  `json:"queue_overflows"`
	// The stall counters pin the per-cycle issue loop itself: a retry
	// shortcut that skipped or double-counted a stalled warp's failed
	// attempt would move them even where cycles and hit rates do not.
	MemStallEvents    int64  `json:"mem_stall_events"`
	LaunchStallEvents int64  `json:"launch_stall_events"`
	IssueCycles       uint64 `json:"issue_cycles"`
}

// goldenOptions is the pinned configuration of the snapshot: the SmallTest
// machine on tiny-scale inputs, a diverse three-workload subset covering a
// graph traversal, a tree build, and a relational join.
func goldenOptions() Options {
	g := config.SmallTest()
	return Options{
		Scale:     kernels.ScaleTiny,
		Config:    &g,
		Workloads: []string{"bfs-citation", "amr", "join-uniform"},
	}
}

func goldenPath() string { return filepath.Join("testdata", "golden", "matrix_tiny.json") }

// snapshotMatrix runs the golden matrix under the chosen clocking and
// flattens it in presentation order.
func snapshotMatrix(t *testing.T, dense bool) []goldenCell {
	t.Helper()
	o := goldenOptions()
	o.DenseClock = dense
	m, err := RunMatrix(o)
	if err != nil {
		t.Fatal(err)
	}
	var cells []goldenCell
	for _, wk := range m.Workloads {
		for _, model := range Models {
			for _, sched := range SchedulerNames {
				r := m.Get(wk.Name, model, sched)
				var st smx.Stats
				for _, x := range r.SMXStats {
					st.MemStallEvents += x.MemStallEvents
					st.LaunchStallEvents += x.LaunchStallEvents
					st.IssueCycles += x.IssueCycles
				}
				cells = append(cells, goldenCell{
					Workload:       wk.Name,
					Model:          model.String(),
					Scheduler:      sched,
					Cycles:         r.Cycles,
					ThreadInsts:    r.ThreadInsts,
					IPC:            fmt.Sprintf("%.6f", r.IPC),
					L1HitRate:      fmt.Sprintf("%.6f", r.L1.HitRate()),
					L2HitRate:      fmt.Sprintf("%.6f", r.L2.HitRate()),
					Kernels:        r.KernelCount,
					DynamicKernels: r.DynamicKernelCount,
					Blocks:         r.BlockCount,
					QueueOverflows: r.QueueOverflows,

					MemStallEvents:    st.MemStallEvents,
					LaunchStallEvents: st.LaunchStallEvents,
					IssueCycles:       st.IssueCycles,
				})
			}
		}
	}
	return cells
}

// TestGoldenMatrix compares the SmallTest/tiny matrix against the committed
// snapshot, cell by cell, so scheduler and memory changes diff against
// known-good numbers instead of loose bounds. Run with -update after an
// intentional behaviour change and commit the new file alongside it.
func TestGoldenMatrix(t *testing.T) {
	got := snapshotMatrix(t, false)

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath()), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated: %s (%d cells)", goldenPath(), len(got))
		return
	}

	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/exp/ -run Golden -update` to create it): %v", err)
	}
	var want []goldenCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", goldenPath(), err)
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d cells, golden file has %d; regenerate with -update", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %s/%s/%s drifted from golden:\n  want %+v\n  got  %+v",
				want[i].Workload, want[i].Model, want[i].Scheduler, want[i], got[i])
		}
	}
}

// TestGoldenMatrixDenseClock runs the same matrix with per-cycle stepping
// and holds it to the identical golden file: the committed snapshot pins
// both clockings at once, so a clocking divergence surfaces as a golden
// drift even when no differential test ran the affected cell.
func TestGoldenMatrixDenseClock(t *testing.T) {
	if *update {
		t.Skip("golden file is written by TestGoldenMatrix")
	}
	got := snapshotMatrix(t, true)
	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/exp/ -run Golden -update` to create it): %v", err)
	}
	var want []goldenCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", goldenPath(), err)
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d cells, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("dense-clock cell %s/%s/%s diverges from golden:\n  want %+v\n  got  %+v",
				want[i].Workload, want[i].Model, want[i].Scheduler, want[i], got[i])
		}
	}
}

func reportPath() string { return filepath.Join("testdata", "golden", "report_tiny.txt") }

// TestGoldenReport pins the full RunAll report on the reduced tiny-scale
// machine byte for byte, so every experiment's rendered numbers — not just
// its section header — diff against a known-good file. Regenerate with
// -update after an intentional behaviour change.
func TestGoldenReport(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(fastOptions("amr", "join-uniform"), &buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(reportPath(), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated: %s", reportPath())
		return
	}
	want, err := os.ReadFile(reportPath())
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/exp/ -run Golden -update` to create it): %v", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("RunAll report drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", reportPath(), got, want)
	}
}
