package mem

import (
	"fmt"
	"testing"

	"laperm/internal/config"
)

// These tests pin the two properties the fast-forward clock leans on in the
// memory system: MSHR liveness is a pure function of the query cycle (so the
// lazily-pruned table is jump-safe — nothing observable depends on how often
// it was polled in between), and the stall wakes — NextStallWake for a slot
// release, MergeWake per stalled warp — never pass the first cycle a dense
// retry of a stalled warp would succeed.

// TestMSHRTableJumpSafe feeds one add schedule to two tables and queries the
// first at every cycle and the second only at a sparse set of jump targets.
// At every shared query cycle the answers must agree: the elided per-cycle
// polls (each of which prunes) must have no observable effect.
func TestMSHRTableJumpSafe(t *testing.T) {
	adds := []struct{ line, complete, at uint64 }{
		{1, 50, 0}, {2, 70, 1}, {3, 70, 2}, {4, 200, 3},
	}
	// Jump targets straddle every expiry boundary.
	sparse := map[uint64]bool{
		4: true, 49: true, 50: true, 69: true, 70: true,
		71: true, 150: true, 199: true, 200: true, 250: true,
	}
	type answer struct {
		complete [6]uint64
		merged   [6]bool
		full     bool
	}
	query := func(m *mshrTable, now uint64) answer {
		var a answer
		for line := uint64(1); line <= 5; line++ {
			a.complete[line], a.merged[line] = m.lookup(line, now)
		}
		a.full = m.full(now)
		return a
	}

	dense, jump := newMSHRTable(4), newMSHRTable(4)
	denseAt := map[uint64]answer{}
	for now := uint64(0); now <= 250; now++ {
		for _, ad := range adds {
			if ad.at == now {
				dense.add(ad.line, ad.complete, now)
			}
		}
		a := query(dense, now) // poll every cycle
		if sparse[now] {
			denseAt[now] = a
		}
	}
	for now := uint64(0); now <= 250; now++ {
		for _, ad := range adds {
			if ad.at == now {
				jump.add(ad.line, ad.complete, now)
			}
		}
		if !sparse[now] {
			continue // the fast-forward clock skipped this cycle
		}
		if got, want := query(jump, now), denseAt[now]; got != want {
			t.Errorf("cycle %d: sparse query %+v, dense oracle %+v", now, got, want)
		}
	}
}

// TestNextStallWakeMatchesDenseScan fills an SMX's MSHR table through the
// real load path and cross-checks NextStallWake against the brute-force
// definition: the first cycle >= next at which the table has a free slot.
// The add that filled the table wakes nothing by itself; a warp whose line
// it was is woken by MergeWake instead.
func TestNextStallWakeMatchesDenseScan(t *testing.T) {
	cfg := config.SmallTest()
	cfg.L1MSHRs = 4
	s := NewSystem(&cfg)

	// Fill the table at cycle 10 with four distinct-line misses.
	fillCycle := uint64(10)
	var completes []uint64
	for i := uint64(0); i < 4; i++ {
		c, ok := s.Load(0, i*config.LineSize, fillCycle)
		if !ok {
			t.Fatalf("fill load %d rejected", i)
		}
		completes = append(completes, c)
	}
	if _, ok := s.Load(0, 4*config.LineSize, fillCycle); ok {
		t.Fatal("fifth miss accepted by a full 4-entry MSHR table")
	}
	mark := s.StallMark(0)

	m := s.mshr[cfg.ClusterOf(0)]
	oracle := func(next uint64) uint64 {
		for slotFree := next; ; slotFree++ {
			live := 0
			for _, e := range m.entries {
				if e.complete > slotFree {
					live++
				}
			}
			if live < m.cap {
				return slotFree
			}
		}
	}

	minComplete := completes[0]
	for _, c := range completes {
		if c < minComplete {
			minComplete = c
		}
	}
	probes := []uint64{fillCycle, fillCycle + 1, fillCycle + 2,
		minComplete - 1, minComplete, minComplete + 1}
	for _, next := range probes {
		if got, want := s.NextStallWake(0, next), oracle(next); got != want {
			t.Errorf("NextStallWake(0, %d) = %d, dense oracle %d", next, got, want)
		}
	}

	// The rejected line has no entry after the mark: only the slot release
	// wakes it. A line added after a mark merges from the cycle after the
	// add, and never earlier than the cycle asked about.
	if got := s.MergeWake(0, 4*config.LineSize, mark, fillCycle+1); got != noExpiry {
		t.Errorf("MergeWake for the rejected line = %d, want none", got)
	}
	if got := s.MergeWake(0, 3*config.LineSize, mark-1, fillCycle+1); got != fillCycle+1 {
		t.Errorf("MergeWake for a line added after the mark = %d, want %d", got, fillCycle+1)
	}
	if got := s.MergeWake(0, 3*config.LineSize, mark-1, fillCycle+5); got != fillCycle+5 {
		t.Errorf("MergeWake asked later = %d, want next=%d", got, fillCycle+5)
	}

	// The wake must be productive: a retry at the reported cycle succeeds,
	// while one the cycle before still bounces.
	wake := s.NextStallWake(0, fillCycle+1)
	if wake != minComplete {
		t.Fatalf("wake = %d, want first fill completion %d", wake, minComplete)
	}
	if _, ok := s.Load(0, 5*config.LineSize, wake-1); ok {
		t.Errorf("retry at wake-1 (%d) succeeded; wake is not tight", wake-1)
	}
	if _, ok := s.Load(0, 5*config.LineSize, wake); !ok {
		t.Errorf("retry at wake (%d) still rejected; wake is not productive", wake)
	}

	// Once fills land, a free slot means the wake is immediate whatever the
	// horizon asked for.
	far := completes[len(completes)-1] + 1000
	if got := s.NextStallWake(0, far); got != far {
		t.Errorf("NextStallWake with free slots = %d, want next=%d", got, far)
	}
}

// TestStallHorizonNeverPassesDenseRetry runs the randomized schedules of
// TestStallGateMatchesLoadPath (eight warps on two SMXs, one table per SMX
// or one shared, 4 MSHRs, random retry starvation and time jumps) and after
// every cycle computes each SMX's stall horizon as smx.NextEvent does:
// NextStallWake, lowered by MergeWake for each of its stalled warps. The
// dense oracle freezes the memory system and checks every cycle before the
// horizon at which any of those warps' retries could first be accepted;
// none may be. Freezing is exact up to the horizon: no warp, on this SMX or
// a sibling, can add an entry before a slot frees, and NextStallWake bounds
// the horizon by that release. A horizon at which a retry is accepted is
// tight, any other early.
func TestStallHorizonNeverPassesDenseRetry(t *testing.T) {
	for _, perCluster := range []int{1, 2} {
		t.Run(fmt.Sprintf("SMXsPerCluster=%d", perCluster), func(t *testing.T) {
			var tight, early, mergeWakes int
			for seed := int64(1); seed <= 16; seed++ {
				runStallGateSchedule(t, perCluster, seed, func(s *System, now uint64, warps []stallWarp) {
					next := now + 1
					for smx := 0; smx < 2; smx++ {
						stalled, exact, merge := checkStallHorizon(t, seed, s, smx, next, warps)
						switch {
						case !stalled:
						case exact:
							tight++
						default:
							early++
						}
						if merge {
							mergeWakes++
						}
					}
				})
			}
			// The horizon must be exact in the common case, and the merge
			// wake must have bound it somewhere, or the schedule does not
			// exercise the contract.
			if tight == 0 || mergeWakes == 0 || early > tight {
				t.Fatalf("horizons: %d tight, %d early, %d bound by a merge; want tight > 0, merges > 0, early <= tight",
					tight, early, mergeWakes)
			}
			t.Logf("horizons: %d tight, %d early, %d bound by a merge", tight, early, mergeWakes)
		})
	}
}

// checkStallHorizon computes the given SMX's stall horizon at next and fails
// the test if a dense retry of one of its stalled warps would be accepted
// before it. It reports whether the SMX has a stalled warp, whether a retry
// at the horizon is accepted, and whether a merge wake bound the horizon.
func checkStallHorizon(t *testing.T, seed int64, s *System, smx int, next uint64, warps []stallWarp) (stalled, exact, merge bool) {
	t.Helper()
	slot := s.NextStallWake(smx, next)
	horizon := slot
	for i := range warps {
		if w := &warps[i]; w.smx == smx && w.stalled {
			stalled = true
			horizon = min(horizon, s.MergeWake(smx, w.line, w.mark, next))
		}
	}
	if !stalled {
		return false, false, false
	}
	accepted := func(now uint64) bool {
		for i := range warps {
			if w := &warps[i]; w.smx == smx && w.stalled && loadAccepted(s, smx, w.line, now) {
				return true
			}
		}
		return false
	}
	// Frozen, acceptance changes only where an entry completes, so next and
	// the completions before the horizon are every cycle a dense retry
	// could first succeed on.
	for _, c := range append([]uint64{next}, completionsIn(s.mshr[s.cfg.ClusterOf(smx)], next, horizon)...) {
		if c < horizon && accepted(c) {
			t.Fatalf("seed %d cycle %d smx %d: horizon %d passes the first accepted dense retry at %d",
				seed, next-1, smx, horizon, c)
		}
	}
	return true, accepted(horizon), horizon < slot
}

// completionsIn returns the completion cycles of m's entries in (lo, hi).
func completionsIn(m *mshrTable, lo, hi uint64) []uint64 {
	var cs []uint64
	for _, e := range m.entries {
		if e.complete > lo && e.complete < hi {
			cs = append(cs, e.complete)
		}
	}
	return cs
}
