package mem

import (
	"testing"

	"laperm/internal/config"
)

// Per-layer microbenchmarks of the MSHR path on frozen inputs: the Table I
// K20c memory system with its 32 MSHRs pinned, one SMX's table filled at
// cycle 0 with the lines 0..31, and every query made at cycle 1, before the
// first fill completes, so no iteration prunes or changes the table.

const (
	benchMSHRs  = 32
	benchQuery  = uint64(1)
	benchAbsent = uint64(benchMSHRs) * config.LineSize // never loaded
)

// benchFullSystem returns the system with SMX 0's table full.
func benchFullSystem(b *testing.B) *System {
	b.Helper()
	cfg := config.KeplerK20c()
	cfg.L1MSHRs = benchMSHRs
	s := NewSystem(&cfg)
	for i := uint64(0); i < benchMSHRs; i++ {
		if _, ok := s.Load(0, i*config.LineSize, 0); !ok {
			b.Fatalf("fill load %d rejected", i)
		}
	}
	m := s.mshr[0]
	if len(m.entries) != benchMSHRs || m.nextExpire <= benchQuery {
		b.Fatalf("table holds %d entries, first expiry %d; want %d live at cycle %d",
			len(m.entries), m.nextExpire, benchMSHRs, benchQuery)
	}
	return s
}

// BenchmarkMSHRLookupHit finds each outstanding line in turn.
func BenchmarkMSHRLookupHit(b *testing.B) {
	m := benchFullSystem(b).mshr[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.lookup(uint64(i%benchMSHRs), benchQuery); !ok {
			b.Fatal("outstanding line not found")
		}
	}
}

// BenchmarkMSHRLookupMiss scans the full table for a line it does not hold.
func BenchmarkMSHRLookupMiss(b *testing.B) {
	m := benchFullSystem(b).mshr[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.lookup(benchAbsent/config.LineSize, benchQuery); ok {
			b.Fatal("absent line found")
		}
	}
}

// BenchmarkMSHRLookupMerge is a load that merges with an outstanding miss:
// the whole LoadAs path up to the merge.
func BenchmarkMSHRLookupMerge(b *testing.B) {
	s := benchFullSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.LoadAs(0, uint64(i%benchMSHRs)*config.LineSize, benchQuery, NoAccessor); !ok {
			b.Fatal("merge rejected")
		}
	}
}

// BenchmarkStalledRetry is one retry of a load blocked on the full table:
// through LoadAs (lookup miss, L1 probe miss, full), and through the O(1)
// gate the SMX issue loop asks first.
func BenchmarkStalledRetry(b *testing.B) {
	b.Run("LoadAs", func(b *testing.B) {
		s := benchFullSystem(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := s.LoadAs(0, benchAbsent, benchQuery, NoAccessor); ok {
				b.Fatal("blocked load accepted")
			}
		}
	})
	b.Run("gate", func(b *testing.B) {
		s := benchFullSystem(b)
		mark := s.StallMark(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var blocked bool
			if mark, blocked = s.LoadStillBlocked(0, benchAbsent, mark, benchQuery); !blocked {
				b.Fatal("gate let a blocked load through")
			}
		}
	})
}

// BenchmarkNextStallWake asks for the stall-wake horizon of the full table,
// before its first fill completes and at that completion, when a slot is
// free.
func BenchmarkNextStallWake(b *testing.B) {
	b.Run("full", func(b *testing.B) {
		s := benchFullSystem(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.NextStallWake(0, benchQuery)
		}
	})
	b.Run("draining", func(b *testing.B) {
		s := benchFullSystem(b)
		next := s.mshr[0].nextExpire
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s.NextStallWake(0, next) != next {
				b.Fatal("a slot is free at the first expiry")
			}
		}
	})
}

// benchResidentLines is the number of lines the L1 and L2 benchmarks keep
// resident: as many as one table of MSHRs fills at once, in distinct L1 sets.
const benchResidentLines = benchMSHRs

// BenchmarkL1Hit is a load that hits in the L1: the MSHR lookup finds no
// outstanding miss and one pass over the set counts the hit and touches
// LRU. The lines were loaded at cycle 0 and every query is made after all
// their fills completed, so the table is empty and the L1 holds every line.
func BenchmarkL1Hit(b *testing.B) {
	cfg := config.KeplerK20c()
	s := NewSystem(&cfg)
	var done uint64
	for i := uint64(0); i < benchResidentLines; i++ {
		c, ok := s.Load(0, i*config.LineSize, 0)
		if !ok {
			b.Fatalf("fill load %d rejected", i)
		}
		done = max(done, c)
	}
	want := done + uint64(cfg.L1HitLatency)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c, ok := s.LoadAs(0, uint64(i%benchResidentLines)*config.LineSize, done, NoAccessor); !ok || c != want {
			b.Fatalf("resident line: complete %d ok %v, want an L1 hit at %d", c, ok, want)
		}
	}
}

// BenchmarkL2Access is the shared-L2 leg of an L1 miss that hits in the L2:
// the line hash, the bank's service port and one pass over the bank's set.
// The lines were installed by an earlier pass, and the L2 holds all of them.
func BenchmarkL2Access(b *testing.B) {
	cfg := config.KeplerK20c()
	s := NewSystem(&cfg)
	for i := uint64(0); i < benchResidentLines; i++ {
		s.l2Access(i, 0, NoAccessor)
	}
	before := s.L2Total()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.l2Access(uint64(i%benchResidentLines), 0, NoAccessor)
	}
	b.StopTimer()
	if got := s.L2Total(); got.Hits-before.Hits != int64(b.N) {
		b.Fatalf("%d L2 hits over %d accesses, want all hits", got.Hits-before.Hits, b.N)
	}
}
