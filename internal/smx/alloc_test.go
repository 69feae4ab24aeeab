package smx

// Allocation pins for the SMX pipeline: with warm block/warp free pools, a
// full dispatch → execute → retire block lifecycle — including coalescing
// into the warp's inline line buffer, MSHR traffic, a barrier, and the
// retirement sweep — allocates nothing, and neither does a fast-forward
// tick that decides launch retries through the closed launch gate. The
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
