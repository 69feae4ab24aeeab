package smx

// Allocation pins for the SMX pipeline: with warm block/warp free pools, a
// full dispatch → execute → retire block lifecycle — including MSHR
// traffic, a barrier, and the retirement sweep — allocates nothing, and
// neither does a fast-forward tick that decides launch retries through the
// closed launch gate, a memory instruction's issue, an MSHR-stalled warp's
// retry, or the NextEvent merge check. The
// budget is an explicit 0 so any regression (a fresh slice on the issue
// path, a lost freelist recycle) fails these tests rather than quietly
// serializing the worker pool again.

import (
	"testing"

	"laperm/internal/config"
	"laperm/internal/isa"
	"laperm/internal/mem"
)

// nopEvents accepts every launch and drops retirement notifications, so the
// measured window contains only SMX-side work.
type nopEvents struct{}

func (nopEvents) Launch(int, *Block, *isa.Kernel, uint64, bool) bool { return true }
func (nopEvents) LaunchBlocked() bool                                { return false }
func (nopEvents) BlockDone(int, *Block, uint64)                      {}

func TestBlockLifecycleZeroAlloc(t *testing.T) {
	cfg := config.SmallTest()
	var seq uint64
	s := New(0, &cfg, mem.NewSystem(&cfg), nopEvents{}, GTO, &seq)
	tb := isa.NewTB(64).
		Load(func(tid int) uint64 { return uint64(tid) * 4 }).
		ComputeN(3, 4).
		Barrier().
		Store(func(tid int) uint64 { return 0x1000_0000 + uint64(tid)*4 }).
		Build()
	var now uint64
	lifecycle := func() {
		s.AddBlock(tb, nil, now)
		for !s.Idle() {
			s.Tick(now)
			now++
		}
	}
	// The first lifecycle warms the free pools and the issue-list backing.
	lifecycle()
	if allocs := testing.AllocsPerRun(200, lifecycle); allocs != 0 {
		t.Errorf("dispatch/execute/retire lifecycle: %.2f allocs per block, want 0", allocs)
	}
}

// TestLaunchGatedTickZeroAlloc pins the fast-forward tick of an SMX whose
// warps are all stalled at a launch under a closed gate, both as a gated
// issue scan and as a tick elided inside the cached horizon window.
func TestLaunchGatedTickZeroAlloc(t *testing.T) {
	for _, window := range []bool{false, true} {
		s, ev := launchStalledSMX(t)
		if window {
			s.NextEvent(1)
		}
		now := uint64(1)
		tick := func() {
			s.TickFF(now)
			now++
		}
		if allocs := testing.AllocsPerRun(200, tick); allocs != 0 {
			t.Errorf("window=%v: gated TickFF: %.2f allocs per tick, want 0", window, allocs)
		}
		if ev.launches != benchStalledWarps {
			t.Errorf("window=%v: %d Launch calls after the stalling tick, want 0", window, ev.launches-benchStalledWarps)
		}
		if got, want := s.Stats().LaunchStallEvents, int64(benchStalledWarps)*int64(now); got != want {
			t.Errorf("window=%v: LaunchStallEvents = %d after %d cycles, want %d", window, got, now, want)
		}
	}
}

// TestMemPathZeroAlloc pins the SMX memory path op by op: issuing one load
// (its coalesced lines are read from the program, never copied), one
// fast-forward tick of 64 MSHR-stalled retries decided by the gate, and one
// NextEvent whose merge check walks every stalled warp.
func TestMemPathZeroAlloc(t *testing.T) {
	t.Run("issue", func(t *testing.T) {
		cfg := config.KeplerK20c()
		var seq uint64
		s := New(0, &cfg, mem.NewSystem(&cfg), nopEvents{}, GTO, &seq)
		b := isa.NewTB(config.WarpSize)
		for i := 0; i < 300; i++ {
			base := uint64(i) * 2 * config.LineSize // two fresh lines per load
			b.Load(func(tid int) uint64 { return base + uint64(tid)*8 })
		}
		s.AddBlock(b.Build(), nil, 0)
		var now uint64
		issue := func() {
			now = s.warps[0].readyAt
			s.Tick(now)
		}
		if allocs := testing.AllocsPerRun(200, issue); allocs != 0 {
			t.Errorf("load issue: %.2f allocs per instruction, want 0", allocs)
		}
		if got := s.Stats().WarpInsts; got != 201 {
			t.Errorf("%d loads issued over 201 ticks, want one per tick", got)
		}
	})
	t.Run("stalled retry", func(t *testing.T) {
		s, now := memStalledSMX(t)
		retry := func() {
			s.TickFF(now)
			now++
		}
		if allocs := testing.AllocsPerRun(200, retry); allocs != 0 {
			t.Errorf("gated TickFF: %.2f allocs per tick, want 0", allocs)
		}
		if s.memStalledWarps != benchStalledWarps || s.Stats().WarpInsts != 0 {
			t.Errorf("%d warps stalled, %d issued; the retries must all stay blocked", s.memStalledWarps, s.Stats().WarpInsts)
		}
	})
	t.Run("merge check", func(t *testing.T) {
		s, now := memStalledSMX(t)
		var h uint64
		check := func() { h = s.NextEvent(now) }
		if allocs := testing.AllocsPerRun(200, check); allocs != 0 {
			t.Errorf("NextEvent: %.2f allocs per call, want 0", allocs)
		}
		if h < benchDRAMLatency {
			t.Errorf("horizon %d; an add matching no stalled warp must not wake the SMX", h)
		}
	})
}
