package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sync"
	"time"

	"laperm/internal/gpu"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. parent is 0 for a root span.
type span struct {
	name       string
	start, end time.Time
	id, parent int64
	lane       int
}

// tracer keeps spans in memory for the traced pass and writes them out when
// the run ends. A nil *tracer records nothing, so untraced passes call the
// same code.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextID int64
	// lanes gives every open span a display row: a root span takes the
	// lowest free lane, its children share it.
	laneOf map[int64]int
	busy   []bool
	// profPath receives the CPU profile of the timed phase.
	profPath string
	prof     *os.File
}

func newTracer(profPath string) *tracer {
	return &tracer{t0: time.Now(), laneOf: map[int64]int{}, profPath: profPath}
}

// startProfile starts the CPU profile. Workloads call it and stopProfile
// around their timed phase only, so set-up and output checks stay out of
// the shares.
func (t *tracer) startProfile() error {
	if t == nil {
		return nil
	}
	f, err := os.Create(t.profPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	t.prof = f
	return nil
}

func (t *tracer) stopProfile() error {
	if t == nil || t.prof == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := t.prof.Close()
	t.prof = nil
	return err
}

// begin opens a span under parent and returns its id and the function that
// closes it.
func (t *tracer) begin(name string, parent int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	lane, ok := t.laneOf[parent]
	root := parent == 0 || !ok
	if root {
		lane = 0
		for lane < len(t.busy) && t.busy[lane] {
			lane++
		}
		if lane == len(t.busy) {
			t.busy = append(t.busy, false)
		}
		t.busy[lane] = true
	}
	t.laneOf[id] = lane
	t.mu.Unlock()
	return id, func() {
		end := time.Now()
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans = append(t.spans, span{name, start, end, id, parent, lane})
		delete(t.laneOf, id)
		if root {
			t.busy[lane] = false
		}
	}
}

// add records a span that closed elsewhere, such as an engine phase
// reported through gpu.Options.TraceSpan.
func (t *tracer) add(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{name, start, end, t.nextID, parent, t.laneOf[parent]})
}

// seconds returns the duration of every recorded span with the given name.
func (t *tracer) seconds(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.end.Sub(s.start).Seconds())
		}
	}
	return out
}

// write emits the spans as Chrome trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing: one row per lane, each span a
// complete ("X") event whose args carry its id and parent.
func (t *tracer) write(path string) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]int64{"id": s.id, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// schedStats accumulates one cell's scheduler calls; a cell runs on one
// goroutine, so the counters need no synchronization.
type schedStats struct {
	selectNS          int64
	selects, enqueues int64
}

// timedScheduler wraps a TB scheduler and times every Select.
type timedScheduler struct {
	inner gpu.TBScheduler
	st    *schedStats
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Enqueue(k *gpu.KernelInstance) {
	t.st.enqueues++
	t.inner.Enqueue(k)
}

func (t *timedScheduler) Select(d gpu.Dispatcher) (*gpu.KernelInstance, int) {
	start := time.Now()
	k, smx := t.inner.Select(d)
	t.st.selectNS += time.Since(start).Nanoseconds()
	t.st.selects++
	return k, smx
}

// timedIdleScheduler is a timedScheduler over an IdleAware scheduler. It
// forwards the idle-replay methods, so the engine keeps eliding provably
// nil Select calls exactly as it does for the unwrapped scheduler.
type timedIdleScheduler struct {
	*timedScheduler
	idle gpu.IdleAware
}

func (t timedIdleScheduler) IdleSelectPeriod() int     { return t.idle.IdleSelectPeriod() }
func (t timedIdleScheduler) SkipIdleSelects(n uint64)  { t.idle.SkipIdleSelects(n) }
func (t timedIdleScheduler) SkipEmptySelects(n uint64) { t.idle.SkipEmptySelects(n) }

// wrapScheduler returns s wrapped for timing. The wrapper implements
// gpu.IdleAware exactly when s does: the engine type-asserts it, and hiding
// it would silently turn off idle replay and change what is measured.
func wrapScheduler(s gpu.TBScheduler, st *schedStats) gpu.TBScheduler {
	t := &timedScheduler{inner: s, st: st}
	if idle, ok := s.(gpu.IdleAware); ok {
		return timedIdleScheduler{t, idle}
	}
	return t
}
