package exp

import (
	"fmt"

	"laperm/internal/config"
	"laperm/internal/gpu"
	"laperm/internal/kernels"
	"laperm/internal/spec"
)

// NewScheduler builds the named TB scheduler for the given configuration. It
// delegates to spec.NewScheduler, the single scheduler factory the CLIs, the
// experiment runners, and the lapermd service all share.
func NewScheduler(name string, cfg *config.GPU) (gpu.TBScheduler, error) {
	return spec.NewScheduler(name, cfg)
}

// RunOne simulates one workload under one (model, scheduler) pair.
func RunOne(w kernels.Workload, model gpu.Model, sched string, o Options) (*gpu.Result, error) {
	res, _, err := RunCell(w, model, sched, o, nil)
	return res, err
}

// RunCell is RunOne exposing the engine: customize, when non-nil, edits the
// assembled gpu.Options before the simulator is built (trace hooks, sampling
// overrides), and the simulator is returned alongside the result so callers
// can read kernel-instance timestamps afterwards. On a Run error the
// simulator is still returned for post-mortem inspection (nil only when
// construction itself failed).
func RunCell(w kernels.Workload, model gpu.Model, sched string, o Options,
	customize func(*gpu.Options)) (*gpu.Result, *gpu.Simulator, error) {
	cfg := o.config()
	s, err := NewScheduler(sched, cfg)
	if err != nil {
		return nil, nil, err
	}
	gopts := gpu.Options{
		Config: cfg, Scheduler: s, Model: model, WarpPolicy: o.WarpPolicy,
		Attribution: o.Attribution, SampleEvery: o.SampleEvery,
		DenseClock: o.DenseClock,
	}
	if customize != nil {
		customize(&gopts)
	}
	sim, err := gpu.New(gopts)
	if err != nil {
		return nil, nil, fmt.Errorf("exp: %s/%v/%s: %w", w.Name, model, sched, err)
	}
	if err := sim.LaunchHost(w.Build(o.Scale)); err != nil {
		return nil, sim, fmt.Errorf("exp: %s/%v/%s: %w", w.Name, model, sched, err)
	}
	res, err := sim.Run()
	if err != nil {
		return nil, sim, fmt.Errorf("exp: %s/%v/%s: %w", w.Name, model, sched, err)
	}
	o.meterResult(res)
	return res, sim, nil
}

// meterResult folds a finished cell's simulated cycles into the Options'
// throughput meter (when one is set) and strips the Result's host-timing
// fields, which vary run to run and would otherwise break the sweep
// engine's bit-identical determinism contract.
func (o Options) meterResult(r *gpu.Result) {
	if r == nil {
		return
	}
	if o.Meter != nil {
		o.Meter.Add(r.Cycles)
	}
	r.WallTime, r.SimCyclesPerSec = 0, 0
}

// simCell is one simulation of a figure or study: a workload under one
// launch model and scheduler. o is the caller's Options with at most one
// per-cell override (a configuration copy or a warp policy); customize,
// when non-nil, edits the assembled gpu.Options as in RunCell.
type simCell struct {
	w         kernels.Workload
	model     gpu.Model
	sched     string
	o         Options
	customize func(*gpu.Options)
}

// runCells is the one in-process cell path: it runs every cell through
// RunCell in a single sweep over the caller's pool and returns the results
// in cell order, so studies render output identical to a serial loop for
// every worker count.
func runCells(o Options, cells []simCell) ([]*gpu.Result, error) {
	return sweep(o, len(cells), func(i int) (*gpu.Result, error) {
		c := cells[i]
		res, _, err := RunCell(c.w, c.model, c.sched, c.o, c.customize)
		return res, err
	})
}

// dtblCells appends one DTBL cell per scheduler for workload wk under o.
func dtblCells(cells []simCell, wk kernels.Workload, o Options, scheds ...string) []simCell {
	for _, sched := range scheds {
		cells = append(cells, simCell{w: wk, model: gpu.DTBL, sched: sched, o: o})
	}
	return cells
}

// withConfig returns o running on a private copy of its configuration
// edited by edit: a study's per-cell machine override.
func (o Options) withConfig(edit func(*config.GPU)) Options {
	cfg := o.config()
	edit(cfg)
	o.Config = cfg
	return o
}

// Cell identifies one run of the full evaluation matrix.
type Cell struct {
	Workload string
	Model    gpu.Model
	Sched    string
}

// Matrix holds the results of the full workload x model x scheduler sweep
// that figures 7, 8, and 9 all read from.
type Matrix struct {
	Workloads []kernels.Workload
	Results   map[Cell]*gpu.Result
}

// RunMatrix executes the full evaluation sweep for the given options,
// fanning the workload x model x scheduler cells out over the Options' pool
// (o.Workers goroutines). Each cell builds its own workload program,
// configuration copy, scheduler, and simulator, so the results — and any
// error — are identical to a serial sweep regardless of worker count.
func RunMatrix(o Options) (*Matrix, error) {
	ws, results, err := runGrid(o, Models)
	if err != nil {
		return nil, err
	}
	return &Matrix{Workloads: ws, Results: results}, nil
}

// runGrid runs every workload x model x scheduler cell of o's workloads
// under the given models, in presentation order: the one expansion
// RunMatrix and RunReuse share.
func runGrid(o Options, models []gpu.Model) ([]kernels.Workload, map[Cell]*gpu.Result, error) {
	ws, err := o.workloads()
	if err != nil {
		return nil, nil, err
	}
	var cells []simCell
	for _, w := range ws {
		for _, model := range models {
			for _, sched := range SchedulerNames {
				cells = append(cells, simCell{w: w, model: model, sched: sched, o: o})
			}
		}
	}
	results, err := runCells(o, cells)
	if err != nil {
		return nil, nil, err
	}
	byCell := make(map[Cell]*gpu.Result, len(cells))
	for i, c := range cells {
		byCell[Cell{c.w.Name, c.model, c.sched}] = results[i]
	}
	return ws, byCell, nil
}

// Get returns the result for one cell, panicking on a missing cell (a
// programming error in a figure runner).
func (m *Matrix) Get(workload string, model gpu.Model, sched string) *gpu.Result {
	r, err := m.lookup(workload, model, sched)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// lookup returns the result for one cell, or an error on a missing cell,
// for emitters that must fail cleanly instead of panicking mid-file.
func (m *Matrix) lookup(workload string, model gpu.Model, sched string) (*gpu.Result, error) {
	r, ok := m.Results[Cell{workload, model, sched}]
	if !ok {
		return nil, fmt.Errorf("exp: matrix missing cell %s/%v/%s", workload, model, sched)
	}
	return r, nil
}
