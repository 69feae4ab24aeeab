package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"laperm/internal/exp"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/serve"
	"laperm/internal/spec"
)

// sweep-overlap: two tenants submit overlapping tiny sweeps to one fresh
// server (fresh cache directory) per round, concurrently. Each sweep is 16
// workloads × 3 models × 3 schedulers = 144 cells; the tenants share the
// smx-bind column, so a round expands 288 cells, dedupes 48 and schedules
// 240. The scheduler axis is the slowest one and smx-bind is listed last for
// both tenants, so the shared cells are dispatched after both submissions
// have resolved them: the dedupe counts are then exact whatever the order
// the two POSTs arrive in.
var (
	tinyWorkloads = []string{
		"amr", "bht", "bfs-citation", "bfs-graph5", "bfs-cage15",
		"clr-citation", "clr-graph5", "clr-cage15", "regx-darpa", "regx-strings",
		"pre-movielens", "join-uniform", "join-gaussian",
		"sssp-citation", "sssp-graph5", "sssp-cage15",
	}
	tinyModels = []string{"cdp", "dtbl", "pmk"}
	tenants    = []struct {
		name   string
		scheds []string
	}{
		{"a", []string{"rr", "tb-pri", "smx-bind"}},
		{"b", []string{"adaptive-bind", "work-steal", "smx-bind"}},
	}
)

const (
	tinyScale = kernels.ScaleTiny
	// Expected per-round sweep counters: cells expanded, deduped across
	// the two sweeps, and scheduled for simulation.
	wantExpanded  = 288
	wantDeduped   = 48
	wantScheduled = 240
	// sweepSetupProbes is larger than setupProbes because this set-up is
	// short (tens of milliseconds), so one sample is noisier.
	sweepSetupProbes = 4
)

func rawStrings(vals []string) []json.RawMessage {
	out := make([]json.RawMessage, len(vals))
	for i, v := range vals {
		out[i], _ = json.Marshal(v) // a string always marshals
	}
	return out
}

// sweepSpecs builds the two tenants' sweeps. The seed permutes the workload
// axis, which orders the cells (and the rows of cells.csv), never what a
// cell contains.
func sweepSpecs(seed int64) []spec.SweepSpec {
	perm := permutation(seed, len(tinyWorkloads))
	ws := make([]string, len(perm))
	for i, p := range perm {
		ws[i] = tinyWorkloads[p]
	}
	var specs []spec.SweepSpec
	for _, t := range tenants {
		specs = append(specs, spec.SweepSpec{
			Tenant: t.name,
			Base:   spec.RunSpec{Scale: "tiny"},
			Axes: []spec.SweepAxis{
				{Field: "scheduler", Values: rawStrings(t.scheds)},
				{Field: "workload", Values: rawStrings(ws)},
				{Field: "model", Values: rawStrings(tinyModels)},
			},
		})
	}
	return specs
}

// sweepSetupOnce is the workload's set-up: build the tiny programs and
// start a server on a fresh cache directory. The server is stopped again.
func sweepSetupOnce(out string) (setup, build time.Duration, err error) {
	start := time.Now()
	if build, err = buildPrograms(tinyWorkloads, tinyScale); err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp(out, "setup-cache-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	svc, err := startService(dir)
	if err != nil {
		return 0, 0, err
	}
	setup = time.Since(start)
	return setup, build, svc.stop()
}

// sweepRound is one round's observations.
type sweepRound struct {
	wall     time.Duration
	rtt      [2]time.Duration // per tenant, POST to terminal status
	finish   [2]time.Time
	views    [2]sweepViewSummary
	csv      [2][]byte
	counters map[string]float64
}

type sweepViewSummary struct{ cells, done, failed int }

func measureSweeps(e *env, tr *tracer) (*outcome, error) {
	o := newOutcome()
	_, endSetup := tr.begin("setup", 0)
	setup, _, err := sweepSetupOnce(e.out)
	if err != nil {
		return nil, err
	}
	probeSetup, probeBuild, err := probeSetups(e, "sweep-overlap", sweepSetupProbes)
	endSetup()
	if err != nil {
		return nil, err
	}
	setups := append([]float64{setup.Seconds()}, probeSetup...)
	o.e2e[mSetup] = value{median(setups), "s", len(setups)}
	o.layer["kernels.build_s"] = value{median(probeBuild), "s", len(probeBuild)}

	specs := sweepSpecs(e.seed)
	order := permutation(e.seed, len(specs))
	var rounds []*sweepRound
	totals := telemetryTotals{}
	rt0 := readRuntime()
	if err := tr.startProfile(); err != nil {
		return nil, err
	}
	// Whole rounds only: start another only if one more round of the same
	// length still fits in the measured time.
	var elapsed time.Duration
	for r := 0; ; r++ {
		rd, err := runSweepRound(e, tr, r, specs, order)
		if err != nil {
			tr.stopProfile()
			return nil, err
		}
		rounds = append(rounds, rd)
		totals.add(rd.counters)
		elapsed += rd.wall
		if elapsed+rd.wall > e.seconds {
			break
		}
	}
	if err := tr.stopProfile(); err != nil {
		return nil, err
	}
	runtimeLayer(o, rt0, readRuntime(), len(rounds)*wantScheduled)

	// Output checks against the in-process reference.
	want, err := referenceCSVs(tr, specs)
	if err != nil {
		return nil, err
	}
	var rtts, gaps []float64
	var wall time.Duration
	cellsDone, cellsAll := 0, 0
	for i, rd := range rounds {
		wall += rd.wall
		for t := range specs {
			rtts = append(rtts, rd.rtt[t].Seconds())
			v := rd.views[t]
			cellsDone += v.done
			cellsAll += v.cells
			if v.failed > 0 || v.done != v.cells {
				o.problem("round %d tenant %s: %d of %d cells done, %d failed", i, tenants[t].name, v.done, v.cells, v.failed)
			}
			if !bytes.Equal(rd.csv[t], want[t]) {
				o.problem("round %d tenant %s: cells.csv (%d bytes) differs from exp.WriteCellsCSV in process (%d bytes)",
					i, tenants[t].name, len(rd.csv[t]), len(want[t]))
			}
		}
		gaps = append(gaps, math.Abs(rd.finish[0].Sub(rd.finish[1]).Seconds()))
		got := [3]float64{rd.counters[serve.MetricSweepCellsExpanded], rd.counters[serve.MetricSweepCellsDeduped], rd.counters[serve.MetricSweepCellsScheduled]}
		if got != [3]float64{wantExpanded, wantDeduped, wantScheduled} {
			o.problem("round %d: sweep cells expanded/deduped/scheduled %v/%v/%v, want %d/%d/%d",
				i, got[0], got[1], got[2], wantExpanded, wantDeduped, wantScheduled)
		}
	}
	n := len(rounds)
	o.attempted = cellsAll
	o.failed = cellsAll - cellsDone
	o.e2e[mThroughput] = value{float64(n*wantScheduled) / wall.Seconds(), "1/s", n}
	o.e2e[mLatP50] = value{median(rtts), "s", len(rtts)}
	o.e2e[mCompleted] = value{float64(cellsDone) / float64(cellsAll), "ratio", cellsAll}
	o.e2e[mRSS] = value{peakRSSMB(), "MB", 1}
	o.note("sweep-overlap: %d rounds, %d sweeps, %.3f s wall in rounds; round trip p90 %.6f s (not gated); cells.csv checked against %d in-process cells",
		n, len(rtts), wall.Seconds(), quantile(rtts, 0.9), wantScheduled)
	var walls []float64
	for _, rd := range rounds {
		walls = append(walls, rd.wall.Seconds())
	}
	o.note("round walls (s): %s; set-up samples (s): %s", formatSeconds(walls), formatSeconds(setups))

	last := rounds[n-1].counters
	o.layer["serve.cells_expanded"] = value{last[serve.MetricSweepCellsExpanded], "count", 1}
	o.layer["serve.cells_deduped"] = value{last[serve.MetricSweepCellsDeduped], "count", 1}
	o.layer["serve.cells_scheduled"] = value{last[serve.MetricSweepCellsScheduled], "count", 1}
	o.layer["serve.cache_written_mb"] = value{totals[serve.MetricCacheWrittenB] / float64(n) / 1e6, "MB", n}
	o.layer["serve.fair.finish_gap_s"] = value{mean(gaps), "s", n}
	serveLayers(o, totals, 0)
	spanLayers(o, tr)
	return o, nil
}

// runSweepRound starts a fresh server on a fresh cache directory, submits
// both tenants' sweeps concurrently (in the seed's order), waits for both,
// fetches each cells.csv and scrapes the server's registry.
func runSweepRound(e *env, tr *tracer, r int, specs []spec.SweepSpec, order []int) (*sweepRound, error) {
	dir := filepath.Join(e.out, fmt.Sprintf("sweep-cache-%d", r))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	svc, err := startService(dir)
	if err != nil {
		return nil, err
	}
	rd := &sweepRound{}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	start := time.Now()
	for _, t := range order {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			id, end := tr.begin("client.RunSweep tenant "+tenants[t].name, 0)
			t0 := time.Now()
			v, err := svc.client.RunSweep(ctx, specs[t])
			rd.finish[t] = time.Now()
			rd.rtt[t] = rd.finish[t].Sub(t0)
			end()
			if err != nil {
				errs[t] = fmt.Errorf("tenant %s sweep: %w", tenants[t].name, err)
				return
			}
			rd.views[t] = sweepViewSummary{v.Cells, v.Done, v.Failed}
			_, end = tr.begin("client.SweepArtifact cells.csv", id)
			rd.csv[t], errs[t] = svc.client.SweepArtifact(ctx, v.ID, serve.SweepCellsArtifact)
			end()
		}(t)
	}
	wg.Wait()
	rd.wall = time.Since(start)
	for _, err := range errs {
		if err != nil {
			svc.stop()
			return nil, err
		}
	}
	if rd.counters, err = svc.scrape(); err != nil {
		svc.stop()
		return nil, err
	}
	return rd, svc.stop()
}

// referenceCSVs expands each sweep and runs its cells in process through
// exp.RunCell on a 2-worker exp.Pool, returning the cells.csv that
// exp.WriteCellsCSV writes for them: what the server's file must equal,
// byte for byte.
func referenceCSVs(tr *tracer, specs []spec.SweepSpec) ([][]byte, error) {
	type cell struct {
		sc  spec.SweepCell
		res *gpu.Result
	}
	var expanded [][]spec.SweepCell
	unique := map[string]*cell{}
	var todo []*cell
	for _, sp := range specs {
		_, end := tr.begin("spec.Expand", 0)
		cells, err := sp.Expand()
		end()
		if err != nil {
			return nil, err
		}
		expanded = append(expanded, cells)
		for _, c := range cells {
			if unique[c.Hash] == nil {
				unique[c.Hash] = &cell{sc: c}
				todo = append(todo, unique[c.Hash])
			}
		}
	}
	if len(todo) != wantScheduled {
		return nil, fmt.Errorf("sweeps expand to %d unique cells, want %d", len(todo), wantScheduled)
	}
	err := exp.Pool{Workers: poolWorkers}.Run(len(todo), func(i int) error {
		c := todo[i]
		w, err := kernels.Lookup(c.sc.Spec.Workload)
		if err != nil {
			return err
		}
		model, ok := gpu.ModelByName(c.sc.Spec.Model)
		if !ok {
			return fmt.Errorf("unknown model %q", c.sc.Spec.Model)
		}
		c.res, err = exp.RunOne(w, model, c.sc.Spec.Scheduler, exp.Options{Scale: tinyScale})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	var out [][]byte
	for s, cells := range expanded {
		var axes []string
		for _, a := range specs[s].Axes {
			axes = append(axes, a.Field)
		}
		rows := make([]exp.CellRow, len(cells))
		for i, c := range cells {
			rows[i] = exp.CellRow{ID: c.Hash, Values: c.Values, Result: unique[c.Hash].res}
		}
		var buf bytes.Buffer
		if err := exp.WriteCellsCSV(axes, rows, &buf); err != nil {
			return nil, err
		}
		out = append(out, buf.Bytes())
	}
	return out, nil
}

// spanLayers derives per-layer latencies from the client-side spans of the
// traced pass.
func spanLayers(o *outcome, tr *tracer) {
	if tr == nil {
		return
	}
	if s := tr.seconds("client.Run"); len(s) > 0 {
		o.layer["serve.submit_s_p50"] = value{median(s), "s", len(s)}
	}
	art := append(tr.seconds("client.Artifact result.json"), tr.seconds("client.SweepArtifact cells.csv")...)
	if len(art) > 0 {
		o.layer["serve.artifact_s_p50"] = value{median(art), "s", len(art)}
	}
	if s := tr.seconds("spec.Expand"); len(s) > 0 {
		o.layer["spec.expand_ms"] = value{mean(s) * 1e3, "ms", len(s)}
	}
	if s := tr.seconds("spec.Hash"); len(s) > 0 {
		o.layer["spec.hash_us"] = value{mean(s) * 1e6, "us", len(s)}
	}
}
