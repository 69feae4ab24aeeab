package exp

import (
	"fmt"
	"io"

	"laperm/internal/core"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/metrics"
	"laperm/internal/smx"
)

// LatencySweepPoints are the child launch latencies (cycles) swept by the
// launch-latency sensitivity study of Section IV-D.
var LatencySweepPoints = []int{10, 100, 500, 1000, 2500, 5000, 10000, 20000}

// resolveWorkloads maps names to workloads, erroring on the first unknown
// name (in input order, matching the serial runners).
func resolveWorkloads(names []string) ([]kernels.Workload, error) {
	wks := make([]kernels.Workload, len(names))
	for i, name := range names {
		wk, ok := kernels.ByName(name)
		if !ok {
			return nil, fmt.Errorf("exp: unknown workload %q", name)
		}
		wks[i] = wk
	}
	return wks, nil
}

// runLatency reproduces the Section IV-D analysis: LaPerm's benefit over RR
// as a function of child launch latency. The longer the launch path, the
// wider the parent-child time gap and the less temporal locality survives.
// Each (latency, workload) cell runs independently on the pool.
func runLatency(o Options, w io.Writer) error {
	names := o.Workloads
	if len(names) == 0 {
		names = []string{"bfs-citation", "sssp-cage15", "join-uniform"}
	}
	wks, err := resolveWorkloads(names)
	if err != nil {
		return err
	}
	type cell struct{ li, wi int }
	var cells []cell
	for li := range LatencySweepPoints {
		for wi := range wks {
			cells = append(cells, cell{li, wi})
		}
	}
	ratios, err := sweep(o, len(cells), func(i int) (float64, error) {
		c := cells[i]
		cfg := o.config()
		cfg.DTBLLaunchLatency = LatencySweepPoints[c.li]
		opt := Options{Scale: o.Scale, Config: cfg}
		base, err := RunOne(wks[c.wi], gpu.DTBL, "rr", opt)
		if err != nil {
			return 0, err
		}
		lap, err := RunOne(wks[c.wi], gpu.DTBL, "adaptive-bind", opt)
		if err != nil {
			return 0, err
		}
		return lap.IPC / base.IPC, nil
	})
	if err != nil {
		return err
	}
	t := newTable(append([]string{"latency (cycles)"}, names...)...)
	for li, lat := range LatencySweepPoints {
		row := []string{fmt.Sprintf("%d", lat)}
		for wi := range wks {
			row = append(row, norm(ratios[li*len(wks)+wi]))
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
	names := o.Workloads
	if len(names) == 0 {
		names = []string{"amr", "join-gaussian", "regx-darpa", "bfs-graph5"}
	}
	wks, err := resolveWorkloads(names)
	if err != nil {
		return err
	}
	scheds := []string{"rr", "smx-bind", "adaptive-bind"}
	results, err := sweep(o, len(wks)*len(scheds), func(i int) (*gpu.Result, error) {
		return RunOne(wks[i/len(scheds)], gpu.DTBL, scheds[i%len(scheds)], o)
	})
	if err != nil {
		return err
	}
	t := newTable("workload", "imbalance rr", "imbalance smx-bind", "imbalance adaptive", "ipc smx-bind/rr", "ipc adaptive/rr")
	for wi, name := range names {
		rr, sb, ab := results[wi*3], results[wi*3+1], results[wi*3+2]
		t.row(name,
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
	scheds := []string{"rr", "tb-pri", "adaptive-bind"}
	results, err := sweep(o, len(levels)*len(scheds), func(i int) (*gpu.Result, error) {
		cfg := o.config()
		cfg.MaxPriorityLevels = levels[i/len(scheds)]
		opt := Options{Scale: o.Scale, Config: cfg}
		return RunOne(NestedWorkload(), gpu.DTBL, scheds[i%len(scheds)], opt)
	})
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
	names := o.Workloads
	if len(names) == 0 {
		names = []string{"bfs-citation", "bht", "amr"}
	}
	wks, err := resolveWorkloads(names)
	if err != nil {
		return err
	}
	sizes := []int{1, 2, 4}
	scheds := []string{"rr", "adaptive-bind"}
	results, err := sweep(o, len(wks)*len(sizes)*len(scheds), func(i int) (*gpu.Result, error) {
		cfg := o.config()
		cfg.NumSMX = 12 // divisible by every swept cluster size
		cfg.SMXsPerCluster = sizes[(i/len(scheds))%len(sizes)]
		opt := Options{Scale: o.Scale, Config: cfg}
		return RunOne(wks[i/(len(sizes)*len(scheds))], gpu.DTBL, scheds[i%len(scheds)], opt)
	})
	if err != nil {
		return err
	}
	t := newTable("workload", "cluster size", "ipc adaptive/rr", "l1 rr", "l1 adaptive")
	for wi, name := range names {
		for si, size := range sizes {
			rr := results[(wi*len(sizes)+si)*2]
			ab := results[(wi*len(sizes)+si)*2+1]
			t.row(name, fmt.Sprintf("%d", size), norm(ab.IPC/rr.IPC),
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
	names := o.Workloads
	if len(names) == 0 {
		names = []string{"bfs-citation", "join-gaussian", "bht"}
	}
	wks, err := resolveWorkloads(names)
	if err != nil {
		return err
	}
	policies := []smx.Policy{smx.GTO, smx.LRR, smx.TwoLevel}
	ratios, err := sweep(o, len(wks)*len(policies), func(i int) (float64, error) {
		opt := Options{Scale: o.Scale, Config: o.Config, WarpPolicy: policies[i%len(policies)]}
		rr, err := RunOne(wks[i/len(policies)], gpu.DTBL, "rr", opt)
		if err != nil {
			return 0, err
		}
		ab, err := RunOne(wks[i/len(policies)], gpu.DTBL, "adaptive-bind", opt)
		if err != nil {
			return 0, err
		}
		return ab.IPC / rr.IPC, nil
	})
	if err != nil {
		return err
	}
	t := newTable("workload", "ipc adaptive/rr (gto)", "ipc adaptive/rr (lrr)", "ipc adaptive/rr (two-level)")
	for wi, name := range names {
		row := []string{name}
		for pi := range policies {
			row = append(row, norm(ratios[wi*len(policies)+pi]))
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
	names := o.Workloads
	if len(names) == 0 {
		names = []string{"bfs-citation", "bht"}
	}
	wks, err := resolveWorkloads(names)
	if err != nil {
		return err
	}
	caps := []int{16, 12, 8, 4}
	results, err := sweep(o, len(wks)*len(caps), func(i int) (*gpu.Result, error) {
		cfg := o.config()
		inner, err := NewScheduler("adaptive-bind", cfg)
		if err != nil {
			return nil, err
		}
		sched := core.NewThrottled(inner, caps[i%len(caps)])
		sim, err := gpu.New(gpu.Options{Config: cfg, Scheduler: sched, Model: gpu.DTBL, DenseClock: o.DenseClock})
		if err != nil {
			return nil, err
		}
		if err := sim.LaunchHost(wks[i/len(caps)].Build(o.Scale)); err != nil {
			return nil, err
		}
		res, err := sim.Run()
		o.meterResult(res)
		return res, err
	})
	if err != nil {
		return err
	}
	t := newTable("workload", "cap", "ipc vs uncapped", "l1 hit")
	for wi, name := range names {
		base := results[wi*len(caps)].IPC // cap 16 is the uncapped baseline
		for ci, c := range caps {
			res := results[wi*len(caps)+ci]
			t.row(name, fmt.Sprintf("%d", c), norm(res.IPC/base), pct(res.L1.HitRate()))
		}
	}
	fmt.Fprintln(w, "Adaptive-Bind with contention-aware TB residency caps (DTBL)")
	return t.write(w)
}

// runBackup is the sticky-backup ablation: Figure 6 records one backup bank
// per SMX and drains it; the ablation re-scans every slot. The paper argues
// stickiness preserves stolen-sibling locality.
func runBackup(o Options, w io.Writer) error {
	names := o.Workloads
	if len(names) == 0 {
		names = []string{"bfs-citation", "join-gaussian", "amr"}
	}
	wks, err := resolveWorkloads(names)
	if err != nil {
		return err
	}
	// Variants per workload: the RR baseline, sticky backup, free backup.
	type variantResult struct {
		res    *gpu.Result
		steals int64
	}
	results, err := sweep(o, len(wks)*3, func(i int) (variantResult, error) {
		wk, variant := wks[i/3], i%3
		if variant == 0 {
			res, err := RunOne(wk, gpu.DTBL, "rr", o)
			return variantResult{res: res}, err
		}
		cfg := o.config()
		ab := core.NewAdaptiveBindClusters(cfg.NumSMX, cfg.SMXsPerCluster, cfg.MaxPriorityLevels)
		ab.FreeBackup = variant == 2
		sim, err := gpu.New(gpu.Options{Config: cfg, Scheduler: ab, Model: gpu.DTBL, DenseClock: o.DenseClock})
		if err != nil {
			return variantResult{}, err
		}
		if err := sim.LaunchHost(wk.Build(o.Scale)); err != nil {
			return variantResult{}, err
		}
		res, err := sim.Run()
		o.meterResult(res)
		return variantResult{res: res, steals: ab.Steals}, err
	})
	if err != nil {
		return err
	}
	t := newTable("workload", "ipc sticky/rr", "ipc free/rr", "steals sticky", "steals free")
	for wi, name := range names {
		rr, sticky, free := results[wi*3], results[wi*3+1], results[wi*3+2]
		t.row(name, norm(sticky.res.IPC/rr.res.IPC), norm(free.res.IPC/rr.res.IPC),
			fmt.Sprintf("%d", sticky.steals), fmt.Sprintf("%d", free.steals))
	}
	fmt.Fprintln(w, "Adaptive-Bind stage-3 backup policy ablation (DTBL)")
	return t.write(w)
}

var _ = metrics.Mean // metrics is used by figures.go in this package
