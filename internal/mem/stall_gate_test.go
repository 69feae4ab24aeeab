package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"laperm/internal/config"
)

// loadAccepted is the side-effect-free definition of LoadAs acceptance at
// cycle now: the line merges with a live MSHR entry, hits in the L1, or the
// table has fewer live entries than its capacity. It reads the table without
// pruning it, so calling it cannot change what the engine sees next.
func loadAccepted(s *System, smx int, lineAddr, now uint64) bool {
	lineID := lineAddr / config.LineSize
	m := s.mshr[s.cfg.ClusterOf(smx)]
	live := 0
	for _, e := range m.entries {
		if e.complete > now {
			if e.lineID == lineID {
				return true
			}
			live++
		}
	}
	return s.l1[s.cfg.ClusterOf(smx)].Probe(lineID) || live < m.cap
}

// stallWarp is one virtual warp of the differential schedule: either free to
// issue, or stalled on a rejected load of line with the mark it recorded.
type stallWarp struct {
	smx     int
	stalled bool
	line    uint64
	mark    uint64
}

// TestStallGateMatchesLoadPath drives randomized load and store schedules
// from several virtual warps and checks every LoadStillBlocked verdict
// against loadAccepted. A blocked verdict must mean LoadAs would reject;
// a fall-through verdict is followed by the real LoadAs, whose answer must
// match the model too. Retries are skipped at random, and time jumps past
// many fills at once, so the gate is checked across arbitrary prunes by
// other warps between a rejection and its retry.
func TestStallGateMatchesLoadPath(t *testing.T) {
	for _, perCluster := range []int{1, 2} {
		t.Run(fmt.Sprintf("SMXsPerCluster=%d", perCluster), func(t *testing.T) {
			var blocked, fellAccepted, fellRejected int
			for seed := int64(1); seed <= 16; seed++ {
				b, fa, fr := runStallGateSchedule(t, perCluster, seed, nil)
				blocked, fellAccepted, fellRejected = blocked+b, fellAccepted+fa, fellRejected+fr
			}
			// Every verdict class must occur, or the schedule does not
			// exercise the gate.
			if blocked == 0 || fellAccepted == 0 || fellRejected == 0 {
				t.Fatalf("verdicts: %d blocked, %d fall-through accepted, %d fall-through rejected; want all > 0",
					blocked, fellAccepted, fellRejected)
			}
			t.Logf("verdicts: %d blocked, %d fall-through accepted, %d fall-through rejected",
				blocked, fellAccepted, fellRejected)
		})
	}

	t.Run("PruneBetweenRejectionAndRetry", testPruneBetweenRejectionAndRetry)
}

// runStallGateSchedule runs one randomized schedule, checking every verdict,
// and calls afterCycle, when non-nil, once each cycle's warps have acted.
func runStallGateSchedule(t *testing.T, perCluster int, seed int64,
	afterCycle func(s *System, now uint64, warps []stallWarp)) (blocked, fellAccepted, fellRejected int) {
	t.Helper()
	cfg := config.SmallTest()
	cfg.L1MSHRs = 4
	cfg.SMXsPerCluster = perCluster
	s := NewSystem(&cfg)
	rng := rand.New(rand.NewSource(seed))

	// Two SMXs, so with SMXsPerCluster=2 their warps share one table. 48
	// lines overfill the 32-line L1, so hits, merges and evictions all occur.
	warps := make([]stallWarp, 8)
	for i := range warps {
		warps[i].smx = i % 2
	}
	randLine := func() uint64 { return uint64(rng.Intn(48)) * config.LineSize }

	now := uint64(0)
	for step := 0; step < 3000; step++ {
		if rng.Intn(8) == 0 {
			now += uint64(1 + rng.Intn(400)) // past several fills at once
		} else {
			now++
		}
		for _, i := range rng.Perm(len(warps)) {
			w := &warps[i]
			if rng.Intn(3) == 0 {
				continue // starved this cycle: its view of the table goes stale
			}
			if !w.stalled {
				if rng.Intn(4) == 0 {
					s.Store(w.smx, randLine(), now)
					continue
				}
				w.line = randLine()
				want := loadAccepted(s, w.smx, w.line, now)
				if _, ok := s.Load(w.smx, w.line, now); ok != want {
					t.Fatalf("seed %d cycle %d: fresh load accepted=%v, model %v", seed, now, ok, want)
				}
				if w.stalled = !want; w.stalled {
					w.mark = s.StallMark(w.smx)
				}
				continue
			}
			want := loadAccepted(s, w.smx, w.line, now)
			mark, gated := s.LoadStillBlocked(w.smx, w.line, w.mark, now)
			if gated {
				if want {
					t.Fatalf("seed %d cycle %d: gate blocked a retry of line %d that LoadAs would accept",
						seed, now, w.line/config.LineSize)
				}
				w.mark = mark
				blocked++
				continue
			}
			_, ok := s.Load(w.smx, w.line, now)
			if ok != want {
				t.Fatalf("seed %d cycle %d: fall-through load accepted=%v, model %v", seed, now, ok, want)
			}
			if ok {
				w.stalled = false
				fellAccepted++
			} else {
				w.mark = s.StallMark(w.smx)
				fellRejected++
			}
		}
		if afterCycle != nil {
			afterCycle(s, now, warps)
		}
	}
	return blocked, fellAccepted, fellRejected
}

// testPruneBetweenRejectionAndRetry stalls warp A on a full table, lets warp
// B's load prune the first completed fill at that fill's cycle, and retries A
// in the same cycle. B's access either leaves the freed slot open, refills it
// with another line, or refills it with A's own line. A gate that compared
// only the add count and the cached next expiry would call the first case
// blocked: B's prune raised nextExpire without an add.
func testPruneBetweenRejectionAndRetry(t *testing.T) {
	const blockedLine = 4 * config.LineSize
	cases := []struct {
		name        string
		bLine       uint64 // the line warp B loads at the first expiry
		wantBlocked bool
	}{
		{"slot left free", 1 * config.LineSize, false}, // merge: prunes, adds nothing
		{"slot refilled by another line", 5 * config.LineSize, true},
		{"slot refilled by the blocked line", blockedLine, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.SmallTest()
			cfg.L1MSHRs = 4
			s := NewSystem(&cfg)
			for i := uint64(0); i < 4; i++ {
				if _, ok := s.Load(0, i*config.LineSize, 0); !ok {
					t.Fatalf("fill load %d rejected", i)
				}
			}
			if _, ok := s.Load(0, blockedLine, 1); ok {
				t.Fatal("load accepted by a full table")
			}
			mark := s.StallMark(0)
			m := s.mshr[0]
			expiry := m.nextExpire

			s.Load(0, tc.bLine, expiry) // warp B, on the same SMX
			if tc.bLine == 1*config.LineSize && (m.adds != mark || expiry >= m.nextExpire) {
				t.Fatalf("setup: B's merge must prune without adding (adds %d, mark %d, nextExpire %d -> %d)",
					m.adds, mark, expiry, m.nextExpire)
			}

			want := loadAccepted(s, 0, blockedLine, expiry)
			_, gated := s.LoadStillBlocked(0, blockedLine, mark, expiry)
			if gated != tc.wantBlocked || gated == want {
				t.Fatalf("gate blocked=%v, model accepts=%v, want blocked=%v", gated, want, tc.wantBlocked)
			}
			if !gated {
				if _, ok := s.Load(0, blockedLine, expiry); !ok {
					t.Error("fall-through retry rejected; the freed slot or merge was not taken")
				}
			}
		})
	}
}
