package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"laperm/internal/exp"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
)

// repro-small is the in-process reproduction at the documented small scale:
// a frozen list of 8 workloads (one input per Table II application; the
// three graph applications take the three graph inputs) × 3 launch models ×
// 5 schedulers, run through exp.Pool with 2 workers. Names are listed
// explicitly so a new registry entry never changes the inputs.
var (
	reproWorkloads = []string{"amr", "bht", "bfs-citation", "clr-graph5", "sssp-cage15", "regx-darpa", "pre-movielens", "join-gaussian"}
	reproModels    = []string{"cdp", "dtbl", "pmk"}
	reproScheds    = []string{"rr", "tb-pri", "smx-bind", "adaptive-bind", "work-steal"}
)

const (
	smallScale  = kernels.ScaleSmall
	poolWorkers = 2
	// setupProbes is how many fresh processes repeat the set-up, so
	// setup_s is a median rather than one sample.
	setupProbes = 2
)

type cellKey struct{ workload, model, sched string }

func (k cellKey) String() string { return k.workload + "/" + k.model + "/" + k.sched }

// cellRun is one simulated cell: its result, or the deadlock the watchdog
// reported, or another error (which fails the benchmark).
type cellRun struct {
	key      cellKey
	res      *gpu.Result
	deadlock *gpu.DeadlockError
	err      error
	hostS    float64
	sched    schedStats
	queue    map[string]int64 // backpressure episodes by "stall.<queue>" / "overflow.<queue>"
}

// cycles is the simulated cycles the cell covered: the finish cycle, or the
// cycle at which its watchdog fired.
func (c *cellRun) cycles() uint64 {
	switch {
	case c.res != nil:
		return c.res.Cycles
	case c.deadlock != nil:
		return c.deadlock.Cycle
	}
	return 0
}

func reproCells() []cellKey {
	var cells []cellKey
	for _, w := range reproWorkloads {
		for _, m := range reproModels {
			for _, s := range reproScheds {
				cells = append(cells, cellKey{w, m, s})
			}
		}
	}
	return cells
}

// buildPrograms builds (and so memoizes) every named workload's program.
func buildPrograms(names []string, scale kernels.Scale) (time.Duration, error) {
	start := time.Now()
	for _, n := range names {
		w, err := kernels.Lookup(n)
		if err != nil {
			return 0, err
		}
		w.Build(scale)
	}
	return time.Since(start), nil
}

func measureRepro(e *env, tr *tracer) (*outcome, error) {
	o := newOutcome()
	_, endSetup := tr.begin("setup", 0)
	build, err := buildPrograms(reproWorkloads, smallScale)
	if err != nil {
		return nil, err
	}
	probeSetup, probeBuild, err := probeSetups(e, "repro-small", setupProbes)
	endSetup()
	if err != nil {
		return nil, err
	}
	setups := append([]float64{build.Seconds()}, probeSetup...)
	o.e2e[mSetup] = value{median(setups), "s", len(setups)}
	o.note("set-up samples (s): %s", formatSeconds(setups))
	o.layer["kernels.build_s"] = value{median(probeBuild), "s", len(probeBuild)}

	cells := reproCells()
	var all []*cellRun
	var wall time.Duration
	rt0 := readRuntime()
	digest := ""
	if err := tr.startProfile(); err != nil {
		return nil, err
	}
	for pass := 0; ; pass++ {
		runs, d, err := reproPass(cells, permutation(e.seed+int64(pass), len(cells)), tr)
		if err != nil {
			tr.stopProfile()
			return nil, err
		}
		all = append(all, runs...)
		wall += d
		dg := reproDigest(runs)
		if digest != "" && dg != digest {
			o.problem("pass %d digest %s differs from the previous pass's %s", pass, dg, digest)
		}
		digest = dg
		checkRepro(o, runs)
		// Run whole passes only: start another only if one more pass of
		// the same length still fits in the measured time.
		if wall+d > e.seconds {
			break
		}
	}
	if err := tr.stopProfile(); err != nil {
		return nil, err
	}
	runtimeLayer(o, rt0, readRuntime(), len(all))
	o.digest = digest

	var cycles uint64
	var cellS []float64
	completed := 0
	for _, c := range all {
		cycles += c.cycles()
		cellS = append(cellS, c.hostS)
		if c.res != nil {
			completed++
		}
		if c.err != nil {
			o.failed++
		}
	}
	o.attempted = len(all)
	o.e2e[mThroughput] = value{float64(cycles) / wall.Seconds(), "1/s", len(all)}
	o.e2e[mLatP50] = value{median(cellS), "s", len(cellS)}
	o.e2e[mCompleted] = value{float64(completed) / float64(len(all)), "ratio", len(all)}
	o.e2e[mRSS] = value{peakRSSMB(), "MB", 1}
	o.note("repro-small: %d cells, %d completed, %d deadlocked (*gpu.DeadlockError), %d other errors; %.3f s wall; cell p90 %.6f s (not gated)",
		len(all), completed, countDeadlocks(all), o.failed, wall.Seconds(), quantile(cellS, 0.9))
	o.note("repro-small digest %s", digest)
	reproLayers(o, all, wall)
	modelOutputs(o, all[:len(cells)])
	return o, nil
}

// reproPass runs every cell once, in the given order, on a 2-worker
// exp.Pool. Cell errors are recorded, never returned to the pool, so every
// cell runs; the returned slice is in the frozen cell order.
func reproPass(cells []cellKey, order []int, tr *tracer) ([]*cellRun, time.Duration, error) {
	byName := map[string]kernels.Workload{}
	for _, n := range reproWorkloads {
		w, err := kernels.Lookup(n)
		if err != nil {
			return nil, 0, err
		}
		byName[n] = w
	}
	runs := make([]*cellRun, len(cells))
	pool := exp.Pool{Workers: poolWorkers}
	start := time.Now()
	err := pool.Run(len(cells), func(i int) error {
		k := cells[order[i]]
		c := &cellRun{key: k}
		runs[order[i]] = c
		model, ok := gpu.ModelByName(k.model)
		if !ok {
			c.err = fmt.Errorf("unknown model %q", k.model)
			return nil
		}
		id, end := tr.begin("exp.RunCell "+k.String(), 0)
		var customize func(*gpu.Options)
		if tr != nil {
			c.queue = map[string]int64{}
			customize = func(g *gpu.Options) {
				g.Scheduler = wrapScheduler(g.Scheduler, &c.sched)
				g.TraceQueue = func(ev gpu.QueueEvent) {
					kind := "stall."
					if ev.Kind == gpu.QueueOverflow {
						kind = "overflow."
					}
					c.queue[kind+ev.Queue]++
				}
				g.TraceSpan = func(name string, s, e time.Time) { tr.add(name, id, s, e) }
			}
		}
		t0 := time.Now()
		res, _, err := exp.RunCell(byName[k.workload], model, k.sched, exp.Options{Scale: smallScale}, customize)
		c.hostS = time.Since(t0).Seconds()
		end()
		var dl *gpu.DeadlockError
		switch {
		case err == nil:
			c.res = res
		case errors.As(err, &dl):
			c.deadlock = dl
		default:
			c.err = err
		}
		return nil
	})
	return runs, time.Since(start), err
}

// reproDigest hashes every cell's outcome and simulated statistics in the
// frozen cell order. Simulation is deterministic, so the digest is the same
// for every seed and for traced and untraced passes; a change meant only to
// speed the simulator up must leave it unchanged.
func reproDigest(runs []*cellRun) string {
	h := sha256.New()
	for _, c := range runs {
		switch {
		case c.res != nil:
			r := c.res
			fmt.Fprintf(h, "%s ok cycles=%d insts=%d l1=%d/%d l2=%d/%d dram=%d\n", c.key, r.Cycles, r.ThreadInsts,
				r.L1.Hits, r.L1.Misses(), r.L2.Hits, r.L2.Misses(), r.DRAMTransactions)
		case c.deadlock != nil:
			d := c.deadlock
			fmt.Fprintf(h, "%s deadlock cycle=%d live=%d kmu=%d kdu=%d\n", c.key, d.Cycle, d.Live, d.KMUQueued, d.KDUUsed)
		default:
			fmt.Fprintf(h, "%s error %v\n", c.key, c.err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkRepro fails the run on any error other than a deadlock, and checks
// that every completed cell of a workload issued the same number of thread
// instructions: the program is fixed, so the model and scheduler may change
// when instructions run but never how many.
func checkRepro(o *outcome, runs []*cellRun) {
	insts := map[string]int64{}
	for _, c := range runs {
		if c.err != nil {
			o.problem("cell %s: %v", c.key, c.err)
			continue
		}
		if c.res == nil {
			continue
		}
		if want, ok := insts[c.key.workload]; ok && c.res.ThreadInsts != want {
			o.problem("cell %s: %d thread instructions, other cells of %s issued %d",
				c.key, c.res.ThreadInsts, c.key.workload, want)
		}
		insts[c.key.workload] = c.res.ThreadInsts
	}
}

func countDeadlocks(runs []*cellRun) int {
	n := 0
	for _, c := range runs {
		if c.deadlock != nil {
			n++
		}
	}
	return n
}

// reproLayers derives the engine per-layer metrics from the cells of the
// measured passes. Counts of modelled work come from completed cells'
// Results; launch-path episodes from the TraceQueue hook (traced pass only).
func reproLayers(o *outcome, runs []*cellRun, wall time.Duration) {
	type agg struct {
		cycles      uint64
		hostS       float64
		deadlocks   int
		selNS, sels int64
	}
	byModel, bySched := map[string]*agg{}, map[string]*agg{}
	get := func(m map[string]*agg, k string) *agg {
		if m[k] == nil {
			m[k] = &agg{}
		}
		return m[k]
	}
	var (
		busyS                    float64
		cellS                    []float64
		l1h, l1a, l2h, l2a, dram int64
		warpInsts, memStalls     int64
		stallCycles              uint64
		childWait                []float64
		peakKMU                  int
		queue                    = map[string]int64{}
		selects, enqueues        int64
	)
	for _, c := range runs {
		busyS += c.hostS
		cellS = append(cellS, c.hostS)
		m := get(byModel, c.key.model)
		m.cycles += c.cycles()
		m.hostS += c.hostS
		s := get(bySched, c.key.sched)
		s.selNS += c.sched.selectNS
		s.sels += c.sched.selects
		selects += c.sched.selects
		enqueues += c.sched.enqueues
		for k, v := range c.queue {
			queue[k] += v
		}
		if c.deadlock != nil {
			m.deadlocks++
		}
		if r := c.res; r != nil {
			l1h, l1a = l1h+r.L1.Hits, l1a+r.L1.Accesses
			l2h, l2a = l2h+r.L2.Hits, l2a+r.L2.Accesses
			dram += r.DRAMTransactions
			for _, st := range r.SMXStats {
				warpInsts += st.WarpInsts
				memStalls += st.MemStallEvents
			}
			stallCycles += r.LaunchStallCycles
			childWait = append(childWait, r.AvgChildWait)
			if r.PeakKMUPending > peakKMU {
				peakKMU = r.PeakKMUPending
			}
		}
	}
	n := len(runs)
	for _, model := range reproModels {
		m := get(byModel, model)
		if m.hostS > 0 {
			o.layer["gpu.cycles_per_s."+model] = value{float64(m.cycles) / m.hostS, "1/s", n / len(reproModels)}
		}
		o.layer["gpu.deadlocks."+model] = value{float64(m.deadlocks), "count", n / len(reproModels)}
	}
	for _, sched := range reproScheds {
		if s := get(bySched, sched); s.sels > 0 {
			o.layer["core.select_ns."+sched] = value{float64(s.selNS) / float64(s.sels), "ns", int(s.sels)}
		}
	}
	if selects > 0 {
		o.layer["core.select_calls"] = value{float64(selects), "count", n}
		o.layer["core.enqueue_calls"] = value{float64(enqueues), "count", n}
		o.layer["gpu.launch.kmu_stall_episodes"] = value{float64(queue["stall.kmu"]), "count", n}
		o.layer["gpu.launch.agg_stall_episodes"] = value{float64(queue["stall.agg"]), "count", n}
		o.layer["gpu.launch.agg_overflows"] = value{float64(queue["overflow.agg"]), "count", n}
		o.layer["gpu.launch.taskq_stall_episodes"] = value{float64(queue["stall.taskq"]), "count", n}
	}
	o.layer["gpu.launch.stall_cycles"] = value{float64(stallCycles), "count", len(childWait)}
	o.layer["gpu.launch.child_wait_cycles_mean"] = value{mean(childWait), "cycles", len(childWait)}
	o.layer["gpu.launch.peak_kmu_pending"] = value{float64(peakKMU), "count", len(childWait)}
	if l1a > 0 {
		o.layer["mem.l1_hit_ratio"] = value{float64(l1h) / float64(l1a), "ratio", len(childWait)}
	}
	if l2a > 0 {
		o.layer["mem.l2_hit_ratio"] = value{float64(l2h) / float64(l2a), "ratio", len(childWait)}
	}
	o.layer["mem.dram_txn"] = value{float64(dram), "count", len(childWait)}
	o.layer["smx.warp_insts"] = value{float64(warpInsts), "count", len(childWait)}
	o.layer["smx.mem_stall_events"] = value{float64(memStalls), "count", len(childWait)}
	o.layer["exp.pool.busy_ratio"] = value{busyS / (poolWorkers * wall.Seconds()), "ratio", n}
	o.layer["exp.cell_s_p50"] = value{median(cellS), "s", n}
	o.layer["exp.cell_s_p90"] = value{quantile(cellS, 0.9), "s", n}
}

// paperRefs are the paper's mean IPC-over-RR figures the model can be set
// beside. The model has no hardware reference, so they are shown, not
// gated.
var paperRefs = map[string]float64{
	"dtbl/adaptive-bind": 1.27,
	"dtbl/tb-pri":        1.13,
	"cdp/tb-pri":         1.04,
}

// modelOutputs reports the modelled design's mean IPC over RR for the three
// LaPerm policies under CDP and DTBL, over the workloads where both cells
// completed, beside the paper's references.
func modelOutputs(o *outcome, runs []*cellRun) {
	ipc := map[cellKey]float64{}
	for _, c := range runs {
		if c.res != nil {
			ipc[c.key] = c.res.IPC
		}
	}
	o.note("modelled IPC over RR (mean over workloads where both cells completed; caches start cold in every cell; the model has no hardware reference, so no error is claimed):")
	for _, model := range []string{"cdp", "dtbl"} {
		for _, sched := range []string{"tb-pri", "smx-bind", "adaptive-bind"} {
			var ratios []float64
			var names []string
			for _, w := range reproWorkloads {
				rr, ok1 := ipc[cellKey{w, model, "rr"}]
				x, ok2 := ipc[cellKey{w, model, sched}]
				if ok1 && ok2 && rr > 0 {
					ratios = append(ratios, x/rr)
					names = append(names, w)
				}
			}
			key := model + "/" + sched
			line := fmt.Sprintf("  %-19s n=%d", key, len(ratios))
			if len(ratios) > 0 {
				line += fmt.Sprintf(" mean %.4fx", mean(ratios))
			} else {
				line += " mean n/a"
			}
			if ref, ok := paperRefs[key]; ok {
				line += fmt.Sprintf("  paper ≈%.2fx", ref)
				if len(ratios) > 0 {
					line += fmt.Sprintf("  diff %+.4f", mean(ratios)-ref)
				}
			}
			sort.Strings(names)
			o.note("%s  [%s]", line, strings.Join(names, ","))
			o.layer["model.ipc_over_rr."+model+"."+sched] = value{mean(ratios), "ratio", len(ratios)}
		}
	}
}
