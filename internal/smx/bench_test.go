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
