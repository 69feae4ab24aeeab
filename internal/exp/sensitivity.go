package exp

import (
	"fmt"
	"io"

	"laperm/internal/config"
	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/smx"
)

// LatencySweepPoints are the child launch latencies (cycles) swept by the
// launch-latency sensitivity study of Section IV-D.
var LatencySweepPoints = []int{10, 100, 500, 1000, 2500, 5000, 10000, 20000}

// runLatency reproduces the Section IV-D analysis: LaPerm's benefit over RR
// as a function of child launch latency. The longer the launch path, the
// wider the parent-child time gap and the less temporal locality survives.
func runLatency(o Options, w io.Writer) error {
	wks, err := o.workloadsOr("bfs-citation", "sssp-cage15", "join-uniform")
	if err != nil {
		return err
	}
	var cells []simCell
	for _, lat := range LatencySweepPoints {
		co := o.withConfig(func(g *config.GPU) { g.DTBLLaunchLatency = lat })
		for _, wk := range wks {
			cells = dtblCells(cells, wk, co, "rr", "adaptive-bind")
		}
	}
	results, err := runCells(o, cells)
	if err != nil {
		return err
	}
	header := []string{"latency (cycles)"}
	for _, wk := range wks {
		header = append(header, wk.Name)
	}
	t := newTable(header...)
	for li, lat := range LatencySweepPoints {
		row := []string{fmt.Sprintf("%d", lat)}
		for wi := range wks {
			k := 2 * (li*len(wks) + wi)
			row = append(row, norm(results[k+1].IPC/results[k].IPC))
		}
		t.row(row...)
	}
	fmt.Fprintln(w, "Adaptive-Bind IPC normalized to RR (DTBL) vs child launch latency")
	return t.write(w)
}

// runBalance contrasts SMX-Bind and Adaptive-Bind on workloads with
// imbalanced launch patterns, reporting SMX busy-cycle imbalance, stage-3
// steal share, and the resulting speedups (the Section IV-C trade-off).
func runBalance(o Options, w io.Writer) error {
	wks, err := o.workloadsOr("amr", "join-gaussian", "regx-darpa", "bfs-graph5")
	if err != nil {
		return err
	}
	var cells []simCell
	for _, wk := range wks {
		cells = dtblCells(cells, wk, o, "rr", "smx-bind", "adaptive-bind")
	}
	results, err := runCells(o, cells)
	if err != nil {
		return err
	}
	t := newTable("workload", "imbalance rr", "imbalance smx-bind", "imbalance adaptive", "ipc smx-bind/rr", "ipc adaptive/rr")
	for wi, wk := range wks {
		rr, sb, ab := results[wi*3], results[wi*3+1], results[wi*3+2]
		t.row(wk.Name,
			norm(rr.LoadImbalance), norm(sb.LoadImbalance), norm(ab.LoadImbalance),
			norm(sb.IPC/rr.IPC), norm(ab.IPC/rr.IPC))
	}
	fmt.Fprintln(w, "SMX busy-cycle imbalance (coefficient of variation) and IPC vs RR (DTBL)")
	return t.write(w)
}

// runLevels sweeps the maximum priority level L on a deeply nested synthetic
// workload: with L=1 all nesting levels collapse into one queue; larger L
// lets deeper descendants pre-empt earlier generations.
func runLevels(o Options, w io.Writer) error {
	levels := []int{1, 2, 4, 8}
	var cells []simCell
	for _, l := range levels {
		co := o.withConfig(func(g *config.GPU) { g.MaxPriorityLevels = l })
		cells = dtblCells(cells, NestedWorkload(), co, "rr", "tb-pri", "adaptive-bind")
	}
	results, err := runCells(o, cells)
	if err != nil {
		return err
	}
	t := newTable("max level L", "ipc tb-pri/rr", "ipc adaptive/rr", "avg child wait (adaptive)")
	for li, l := range levels {
		rr, tp, ab := results[li*3], results[li*3+1], results[li*3+2]
		t.row(fmt.Sprintf("%d", l), norm(tp.IPC/rr.IPC), norm(ab.IPC/rr.IPC),
			fmt.Sprintf("%.0f", ab.AvgChildWait))
	}
	fmt.Fprintln(w, "priority-level ablation on a 4-deep nested workload (DTBL)")
	return t.write(w)
}

// runClusters is the SMX-cluster ablation (Section IV-B's clustered-L1
// discussion): the same workloads on a 12-SMX machine whose L1 is private,
// shared by pairs, or shared by quads of SMXs, comparing Adaptive-Bind's
// gain over RR and the L1 hit rates.
func runClusters(o Options, w io.Writer) error {
	wks, err := o.workloadsOr("bfs-citation", "bht", "amr")
	if err != nil {
		return err
	}
	sizes := []int{1, 2, 4}
	var cells []simCell
	for _, wk := range wks {
		for _, size := range sizes {
			co := o.withConfig(func(g *config.GPU) {
				g.NumSMX = 12 // divisible by every swept cluster size
				g.SMXsPerCluster = size
			})
			cells = dtblCells(cells, wk, co, "rr", "adaptive-bind")
		}
	}
	results, err := runCells(o, cells)
	if err != nil {
		return err
	}
	t := newTable("workload", "cluster size", "ipc adaptive/rr", "l1 rr", "l1 adaptive")
	for wi, wk := range wks {
		for si, size := range sizes {
			rr := results[(wi*len(sizes)+si)*2]
			ab := results[(wi*len(sizes)+si)*2+1]
			t.row(wk.Name, fmt.Sprintf("%d", size), norm(ab.IPC/rr.IPC),
				pct(rr.L1.HitRate()), pct(ab.L1.HitRate()))
		}
	}
	fmt.Fprintln(w, "Adaptive-Bind with cluster-shared L1s (12 SMXs, DTBL)")
	return t.write(w)
}

// runWarp checks the Section IV-F claim that LaPerm is orthogonal to the
// warp scheduling discipline: Adaptive-Bind's gain over RR under
// Greedy-Then-Oldest and under loose round-robin warp scheduling.
func runWarp(o Options, w io.Writer) error {
	wks, err := o.workloadsOr("bfs-citation", "join-gaussian", "bht")
	if err != nil {
		return err
	}
	policies := []smx.Policy{smx.GTO, smx.LRR, smx.TwoLevel}
	var cells []simCell
	for _, wk := range wks {
		for _, p := range policies {
			co := o
			co.WarpPolicy = p
			cells = dtblCells(cells, wk, co, "rr", "adaptive-bind")
		}
	}
	results, err := runCells(o, cells)
	if err != nil {
		return err
	}
	t := newTable("workload", "ipc adaptive/rr (gto)", "ipc adaptive/rr (lrr)", "ipc adaptive/rr (two-level)")
	for wi, wk := range wks {
		row := []string{wk.Name}
		for pi := range policies {
			k := 2 * (wi*len(policies) + pi)
			row = append(row, norm(results[k+1].IPC/results[k].IPC))
		}
		t.row(row...)
	}
	fmt.Fprintln(w, "LaPerm speedup under different warp schedulers (DTBL)")
	return t.write(w)
}

// runThrottle sweeps the contention-aware residency cap of Section IV-F on
// Adaptive-Bind: fewer resident TBs per SMX leave more L1 per block (better
// parent-child reuse) at a parallelism cost.
func runThrottle(o Options, w io.Writer) error {
	wks, err := o.workloadsOr("bfs-citation", "bht")
	if err != nil {
		return err
	}
	caps := []int{16, 12, 8, 4}
	var cells []simCell
	for _, wk := range wks {
		for _, c := range caps {
			cells = append(cells, simCell{w: wk, model: gpu.DTBL, sched: "adaptive-bind", o: o,
				customize: func(g *gpu.Options) { g.Scheduler = core.NewThrottled(g.Scheduler, c) }})
		}
	}
	results, err := runCells(o, cells)
	if err != nil {
		return err
	}
	t := newTable("workload", "cap", "ipc vs uncapped", "l1 hit")
	for wi, wk := range wks {
		base := results[wi*len(caps)].IPC // cap 16 is the uncapped baseline
		for ci, c := range caps {
			res := results[wi*len(caps)+ci]
			t.row(wk.Name, fmt.Sprintf("%d", c), norm(res.IPC/base), pct(res.L1.HitRate()))
		}
	}
	fmt.Fprintln(w, "Adaptive-Bind with contention-aware TB residency caps (DTBL)")
	return t.write(w)
}

// runBackup is the sticky-backup ablation: Figure 6 records one backup bank
// per SMX and drains it; the ablation re-scans every slot. The paper argues
// stickiness preserves stolen-sibling locality.
func runBackup(o Options, w io.Writer) error {
	wks, err := o.workloadsOr("bfs-citation", "join-gaussian", "amr")
	if err != nil {
		return err
	}
	// Cells per workload: the RR baseline, sticky backup, free backup. The
	// variants flag the registry's Adaptive-Bind and keep it (each cell
	// writes its own index) so its steal count can be read afterwards.
	binds := make([]*core.AdaptiveBind, 3*len(wks))
	var cells []simCell
	for _, wk := range wks {
		cells = dtblCells(cells, wk, o, "rr")
		for _, free := range []bool{false, true} {
			i := len(cells)
			cells = append(cells, simCell{w: wk, model: gpu.DTBL, sched: "adaptive-bind", o: o,
				customize: func(g *gpu.Options) {
					binds[i] = g.Scheduler.(*core.AdaptiveBind)
					binds[i].FreeBackup = free
				}})
		}
	}
	results, err := runCells(o, cells)
	if err != nil {
		return err
	}
	t := newTable("workload", "ipc sticky/rr", "ipc free/rr", "steals sticky", "steals free")
	for wi, wk := range wks {
		rr, sticky, free := results[wi*3], results[wi*3+1], results[wi*3+2]
		t.row(wk.Name, norm(sticky.IPC/rr.IPC), norm(free.IPC/rr.IPC),
			fmt.Sprintf("%d", binds[wi*3+1].Steals), fmt.Sprintf("%d", binds[wi*3+2].Steals))
	}
	fmt.Fprintln(w, "Adaptive-Bind stage-3 backup policy ablation (DTBL)")
	return t.write(w)
}
