package smx

import (
	"testing"

	"laperm/internal/config"
	"laperm/internal/isa"
	"laperm/internal/mem"
)

// Per-layer microbenchmarks of the SMX tick on frozen inputs: the Table I
// K20c SMX filled to its 64-warp limit by eight 256-thread blocks whose every
// warp starts with a device launch, behind an Events fake that refuses every
// launch and reports the launch gate closed. After the first tick every warp
// is stalled at its launch, so each iteration is one cycle of 64 retries.

const (
	benchStalledWarps = 64
	benchBlockThreads = 256
)

// refuseEvents refuses every launch, counting the calls, and reports the
// launch gate closed.
type refuseEvents struct{ launches int }

func (e *refuseEvents) Launch(int, *Block, *isa.Kernel, uint64, bool) bool {
	e.launches++
	return false
}
func (*refuseEvents) LaunchBlocked() bool           { return true }
func (*refuseEvents) BlockDone(int, *Block, uint64) {}

// launchStalledSMX returns the frozen SMX after the tick at cycle 0 that
// stalled all of its warps; the next cycle to tick is 1.
func launchStalledSMX(tb testing.TB) (*SMX, *refuseEvents) {
	tb.Helper()
	cfg := config.KeplerK20c()
	ev := &refuseEvents{}
	var seq uint64
	s := New(0, &cfg, mem.NewSystem(&cfg), ev, GTO, &seq)
	child := isa.NewKernel("child").Add(isa.NewTB(config.WarpSize).Compute(1).Build()).Build()
	for i := 0; i < benchStalledWarps*config.WarpSize/benchBlockThreads; i++ {
		b := isa.NewTB(benchBlockThreads)
		for tid := 0; tid < benchBlockThreads; tid += config.WarpSize {
			b.Launch(tid, child)
		}
		s.AddBlock(b.Compute(1).Build(), nil, 0)
	}
	s.Tick(0)
	if s.launchStalledWarps != benchStalledWarps || ev.launches != benchStalledWarps {
		tb.Fatalf("%d warps launch-stalled after %d launches; want %d of each",
			s.launchStalledWarps, ev.launches, benchStalledWarps)
	}
	return s, ev
}

// BenchmarkTickLaunchStalled is one dense tick: every stalled warp retries
// through Launch.
func BenchmarkTickLaunchStalled(b *testing.B) {
	s, ev := launchStalledSMX(b)
	ev.launches = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Tick(uint64(i) + 1)
	}
	b.StopTimer()
	if ev.launches != benchStalledWarps*b.N {
		b.Fatalf("%d Launch calls over %d ticks, want %d per tick", ev.launches, b.N, benchStalledWarps)
	}
}

// BenchmarkTickFFLaunchStalled is one fast-forward tick under the closed
// gate: a full issue scan that decides every retry without Launch
// ("gated"), and the same cycle inside the SMX's cached horizon window,
// where the whole tick is elided ("elided").
func BenchmarkTickFFLaunchStalled(b *testing.B) {
	bench := func(b *testing.B, window bool) {
		s, ev := launchStalledSMX(b)
		if window {
			s.NextEvent(1)
		}
		ev.launches = 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.TickFF(uint64(i) + 1)
		}
		b.StopTimer()
		if ev.launches != 0 {
			b.Fatalf("%d Launch calls under a closed gate, want 0", ev.launches)
		}
	}
	b.Run("gated", func(b *testing.B) { bench(b, false) })
	b.Run("elided", func(b *testing.B) { bench(b, true) })
}

// benchDRAMLatency keeps the fills of memStalledSMX's table outstanding for
// any realistic b.N, so every benchmark cycle falls before the slot release.
const benchDRAMLatency = 1 << 30

// memStalledSMX returns the frozen K20c SMX with its 64 warps all stalled on
// a full MSHR table, and the first cycle to tick. Each warp's first
// instruction loads its own line. The table is filled with 32 other lines
// before the SMX ticks once, so every warp is rejected and records the
// table's mark. Then the one fill that completes early is replaced by the
// add of another foreign line: the table is full again, holding an add
// newer than every warp's mark that matches none of their lines.
func memStalledSMX(tb testing.TB) (*SMX, uint64) {
	tb.Helper()
	cfg := config.KeplerK20c()
	cfg.DRAMLatency = benchDRAMLatency
	m := mem.NewSystem(&cfg)
	var seq uint64
	s := New(0, &cfg, m, nopEvents{}, GTO, &seq)

	const foreign = uint64(1) << 32
	line := func(i int) uint64 { return foreign + uint64(i)*config.LineSize }
	m.Store(0, line(0), 0) // write-allocates in the L2: the next load hits there
	early, _ := m.Load(0, line(0), 0)
	for i := 1; i < cfg.L1MSHRs; i++ {
		if _, ok := m.Load(0, line(i), 0); !ok {
			tb.Fatalf("fill load %d rejected", i)
		}
	}
	for blk := 0; blk < benchStalledWarps*config.WarpSize/benchBlockThreads; blk++ {
		first := uint64(blk * benchBlockThreads)
		s.AddBlock(isa.NewTB(benchBlockThreads).
			Load(func(tid int) uint64 { return (first + uint64(tid)) / config.WarpSize * config.LineSize }).
			Compute(1).Build(), nil, 0)
	}
	s.Tick(1)
	if _, ok := m.Load(0, line(cfg.L1MSHRs), early); !ok {
		tb.Fatalf("foreign add at the early fill's completion %d rejected", early)
	}
	next := early + 1
	if s.memStalledWarps != benchStalledWarps || s.NextEvent(next) < benchDRAMLatency {
		tb.Fatalf("%d warps MSHR-stalled, horizon %d; want %d stalled until the table's slot release",
			s.memStalledWarps, s.NextEvent(next), benchStalledWarps)
	}
	s.horizon = 0 // leave the horizon uncached, as a fresh SMX has it
	return s, next
}

// BenchmarkTickFFMemStalled is one fast-forward cycle of the all-stalled
// SMX: a full issue scan that decides every retry through the O(1) MSHR gate
// ("gated"), and the engine's NextEvent merge check followed by a tick
// elided inside the window it caches ("elided"). The add newer than every
// warp's mark wakes none of them, so the elided cycles stay elided.
func BenchmarkTickFFMemStalled(b *testing.B) {
	b.Run("gated", func(b *testing.B) {
		s, first := memStalledSMX(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.TickFF(first + uint64(i))
		}
		b.StopTimer()
		if s.memStalledWarps != benchStalledWarps || s.stats.WarpInsts != 0 {
			b.Fatalf("%d warps stalled after %d issued; want all %d stalled", s.memStalledWarps, s.stats.WarpInsts, benchStalledWarps)
		}
	})
	b.Run("elided", func(b *testing.B) {
		s, first := memStalledSMX(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now := first + uint64(i)
			s.NextEvent(now)
			s.TickFF(now)
		}
		b.StopTimer()
		if got, want := s.stats.MemStallEvents, int64(benchStalledWarps)*int64(b.N+1); got != want {
			b.Fatalf("MemStallEvents = %d, want %d", got, want)
		}
	})
}
