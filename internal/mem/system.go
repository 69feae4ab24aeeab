package mem

import (
	"fmt"

	"laperm/internal/config"
)

// mshrEntry is one outstanding L1 miss. seq numbers it in add order
// (1 for the table's first add).
type mshrEntry struct {
	lineID   uint64
	complete uint64
	seq      uint64
}

// noExpiry is the nextExpire sentinel of an empty MSHR table.
const noExpiry = ^uint64(0)

// mshrTable bounds and merges outstanding misses for one SMX's L1. An entry
// is live at cycle t exactly while t < complete; liveness is a pure function
// of the query cycle, so expiry is evaluated lazily — the table never needs
// to observe the cycles in between two queries, which makes it jump-safe
// under the engine's fast-forward clock: querying once after a skipped span
// yields the same answers as polling every elided cycle would have.
type mshrTable struct {
	entries []mshrEntry
	cap     int
	// nextExpire caches the minimum completion cycle over entries (noExpiry
	// when empty): prune is O(1) until that cycle arrives, and it is the
	// exact cycle a full table frees a slot — the release horizon the
	// fast-forward clock uses to wake MSHR-stalled warps.
	nextExpire uint64
	// lastAdd is the cycle of the most recent add (noExpiry before the
	// first). An entry for a stalled warp's blocked line turns its retry
	// into an MSHR merge (and, once the fill lands, an L1 hit) from the
	// next cycle on, so lastAdd+1 is the wake MergeWake reports.
	lastAdd uint64
	// adds counts entries ever added (the seq of the newest), and
	// prunedSeq is the highest seq prune has dropped. prune keeps entries
	// in add order, so the entries numbered above a mark are a suffix of
	// the slice, and all of them are still present while prunedSeq does
	// not exceed the mark. stillBlocked and mergeable rest on both.
	adds      uint64
	prunedSeq uint64
}

// newMSHRTable returns an empty table of the given capacity. The entry slice
// is preallocated to the capacity: add never runs past it (full gates
// admission), and prune reuses the backing array, so the MSHR path never
// allocates again.
func newMSHRTable(capacity int) *mshrTable {
	return &mshrTable{
		entries:    make([]mshrEntry, 0, capacity),
		cap:        capacity,
		nextExpire: noExpiry,
		lastAdd:    noExpiry,
	}
}

// lookup returns the completion cycle of an outstanding miss to lineID, if
// one exists at cycle now (expired entries are pruned first).
func (m *mshrTable) lookup(lineID, now uint64) (uint64, bool) {
	m.prune(now)
	for i := range m.entries {
		if m.entries[i].lineID == lineID {
			return m.entries[i].complete, true
		}
	}
	return 0, false
}

// prune drops entries whose fills have completed by cycle now. It is a no-op
// until nextExpire, so steady-state queries cost one comparison.
func (m *mshrTable) prune(now uint64) {
	if now < m.nextExpire {
		return
	}
	keep := m.entries[:0]
	next := uint64(noExpiry)
	for _, e := range m.entries {
		if e.complete > now {
			keep = append(keep, e)
			if e.complete < next {
				next = e.complete
			}
		} else if e.seq > m.prunedSeq {
			m.prunedSeq = e.seq
		}
	}
	m.entries = keep
	m.nextExpire = next
}

func (m *mshrTable) full(now uint64) bool {
	m.prune(now)
	return len(m.entries) >= m.cap
}

// stillBlocked reports whether a load of lineID, rejected by LoadAs when the
// table had seen mark adds, would be rejected again at cycle now. At the
// rejection the line had no live entry, was not in the L1 and the table was
// full. A line enters the L1 only through LoadAs's miss path, which always
// adds an entry for it (a store's Touch never allocates), so the load stays
// rejected exactly while the table is full and no add since the mark was
// this line. prunedSeq <= mark proves every such add is still in the table,
// where the scan of the suffix above the mark sees it; otherwise the answer
// is false and the caller falls back to LoadAs. Like lookup, it only prunes.
func (m *mshrTable) stillBlocked(lineID, mark, now uint64) bool {
	m.prune(now)
	return len(m.entries) >= m.cap && !m.mergeable(lineID, mark)
}

// mergeable reports whether the table changed since mark in a way that can
// accept a load of lineID rejected at mark other than by releasing a slot:
// an entry added since is this line (a merge), or prune has dropped an entry
// added since, whose line may now hit in the L1. It reads the table as last
// pruned and does not prune.
func (m *mshrTable) mergeable(lineID, mark uint64) bool {
	if m.prunedSeq > mark {
		return true
	}
	for i := len(m.entries) - 1; i >= 0 && m.entries[i].seq > mark; i-- {
		if m.entries[i].lineID == lineID {
			return true
		}
	}
	return false
}

func (m *mshrTable) add(lineID, complete, now uint64) {
	m.adds++
	m.entries = append(m.entries, mshrEntry{lineID: lineID, complete: complete, seq: m.adds})
	if complete < m.nextExpire {
		m.nextExpire = complete
	}
	m.lastAdd = now
}

// System is the complete memory hierarchy: one L1 (with MSHRs) per SMX,
// address-interleaved L2 banks, and a bandwidth-limited DRAM.
type System struct {
	cfg *config.GPU

	// l1 and mshr hold one cache and MSHR table per cluster; l1Of and
	// mshrOf route each SMX to its cluster's, so the access path indexes
	// by SMX without dividing by SMXsPerCluster.
	l1     []*Cache
	mshr   []*mshrTable
	l1Of   []*Cache
	mshrOf []*mshrTable
	l2     []*Cache

	// l2Next is the next free service slot of each L2 bank (one access
	// per bank per cycle).
	l2Next []uint64
	// dramNextMilli is the next free DRAM service slot in millicycles,
	// advanced by the per-transaction service interval derived from the
	// bandwidth cap.
	dramNextMilli uint64
	dramTrans     int64
	storeAccesses int64
}

// NewSystem builds the memory hierarchy for the given configuration.
func NewSystem(cfg *config.GPU) *System {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("mem: invalid config: %v", err))
	}
	// One L1 (and MSHR table) per cluster; with SMXsPerCluster == 1 each
	// SMX has a private L1 (the K20c arrangement).
	s := &System{
		cfg:    cfg,
		l1:     make([]*Cache, cfg.NumClusters()),
		mshr:   make([]*mshrTable, cfg.NumClusters()),
		l2:     make([]*Cache, cfg.L2Banks),
		l2Next: make([]uint64, cfg.L2Banks),
	}
	for i := range s.l1 {
		s.l1[i] = NewCache(cfg.L1Sets(), cfg.L1Assoc)
		s.mshr[i] = newMSHRTable(cfg.L1MSHRs)
	}
	s.l1Of = make([]*Cache, cfg.NumSMX)
	s.mshrOf = make([]*mshrTable, cfg.NumSMX)
	for smx := range s.l1Of {
		s.l1Of[smx] = s.l1[cfg.ClusterOf(smx)]
		s.mshrOf[smx] = s.mshr[cfg.ClusterOf(smx)]
	}
	for i := range s.l2 {
		s.l2[i] = NewCache(cfg.L2SetsPerBank(), cfg.L2Assoc)
	}
	return s
}

// mix64 is the (bijective) splitmix64 finalizer. The L2 hashes line
// addresses through it before bank/set selection, as NVIDIA L2s hash
// physical addresses: without hashing, power-of-two strides (4 KB slabs,
// region bases) alias onto a fraction of the sets and cyclic workloads
// degrade to zero hits.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// l2Place maps a line to its L2 bank and the placement ID used inside the
// bank's cache. mix64 is bijective and IDs within one bank share the same
// residue, so placement IDs stay unique per line.
func (s *System) l2Place(lineID uint64) (bank int, placeID uint64) {
	h := mix64(lineID)
	n := uint64(s.cfg.L2Banks)
	return int(h % n), h / n
}

// l2Access performs the shared-L2 leg of an access, returning the completion
// cycle. The access occupies the bank's single service port for one cycle;
// on a miss it additionally queues for DRAM.
func (s *System) l2Access(lineID, now uint64, acc Accessor) uint64 {
	bank, placeID := s.l2Place(lineID)
	start := now
	if s.l2Next[bank] > start {
		start = s.l2Next[bank]
	}
	s.l2Next[bank] = start + 1
	if s.l2[bank].AccessAs(placeID, acc) {
		return start + uint64(s.cfg.L2HitLatency)
	}
	return s.dramAccess(start)
}

// dramAccess queues one 128-byte DRAM transaction starting no earlier than
// `ready` and returns its completion cycle.
func (s *System) dramAccess(ready uint64) uint64 {
	// Service interval is 1000/DRAMTransPer1000Cycles core cycles per
	// transaction, tracked with millicycle precision.
	interval := uint64(1000000 / s.cfg.DRAMTransPer1000Cycles)
	startMilli := ready * 1000
	if s.dramNextMilli > startMilli {
		startMilli = s.dramNextMilli
	}
	s.dramNextMilli = startMilli + interval
	s.dramTrans++
	return startMilli/1000 + uint64(s.cfg.DRAMLatency)
}

// NextStallWake returns the earliest cycle >= next at which the MSHR table
// serving the given SMX has a slot for a warp stalled on it, or ^uint64(0)
// when no such cycle is scheduled. If a slot is already free at next
// (expired fills can linger unclaimed while the warp scheduler's issue-width
// starves the stalled warp's retry), the retry can succeed immediately;
// otherwise the earliest fill completion (nextExpire) is the first chance.
// A retry can also succeed without a slot, by merging with an entry added
// since it was rejected; MergeWake answers that per stalled warp. Until the
// slot release no add can happen at all, so a full table's only wakes are
// these two.
//
// It is a pure query (it does not prune), so it may be asked about any cycle,
// and it needs no scan: nextExpire is the earliest completion among the
// entries, so before it every entry is live, and from it on at least one
// entry has expired and the table (never above capacity) has a live slot.
func (s *System) NextStallWake(smx int, next uint64) uint64 {
	m := s.mshrOf[smx]
	if len(m.entries) < m.cap || next >= m.nextExpire {
		return next
	}
	return m.nextExpire
}

// MergeWake returns the earliest cycle >= next at which a retry of a load of
// lineAddr, rejected with mark from StallMark or LoadStillBlocked, could be
// accepted by something other than a released slot, or ^uint64(0) when none
// can happen before one. That is the cycle after the last add once an entry
// for the line was added since the mark (the retry merges with it), or
// prune has dropped an entry added since (its line may now hit in the L1);
// these are exactly the changes that make LoadStillBlocked fall through on a
// full table. It is a pure query and usually costs two comparisons: a warp
// that retried after the last add holds the table's current mark.
func (s *System) MergeWake(smx int, lineAddr, mark, next uint64) uint64 {
	m := s.mshrOf[smx]
	if !m.mergeable(lineAddr/config.LineSize, mark) {
		return noExpiry
	}
	if a := m.lastAdd + 1; a > next {
		return a
	}
	return next
}

// Load performs one coalesced 128-byte load transaction for the given SMX at
// cycle now. lineAddr must be line-aligned (one of an isa.Inst's Lines).
// It returns the cycle at which the data is available and ok=false if the
// SMX's MSHRs are full (the caller must retry on a later cycle; the access
// is not counted).
func (s *System) Load(smx int, lineAddr, now uint64) (complete uint64, ok bool) {
	return s.LoadAs(smx, lineAddr, now, NoAccessor)
}

// LoadAs is Load carrying the accessing kernel instance's identity for reuse
// attribution. A hit that merges with an outstanding MSHR entry is not
// classified: the data was not in the cache, so no reuse occurred.
func (s *System) LoadAs(smx int, lineAddr, now uint64, acc Accessor) (complete uint64, ok bool) {
	lineID := lineAddr / config.LineSize
	l1, tbl := s.l1Of[smx], s.mshrOf[smx]

	// A hit under an outstanding miss to the same line merges with the
	// MSHR entry: it completes with the fill, counts as an L1 miss (the
	// data was not in the cache), but generates no new L2 traffic.
	if c, merged := tbl.lookup(lineID, now); merged {
		l1.stats.Accesses++
		return c, true
	}
	if l1.hitAs(lineID, acc) {
		return now + uint64(s.cfg.L1HitLatency), true
	}
	// Miss: needs an MSHR before it can allocate and go to L2. A full
	// table rejects the access entirely (not counted); the warp retries.
	if tbl.full(now) {
		return 0, false
	}
	l1.AccessAs(lineID, acc) // counts the miss and allocates the fill target
	c := s.l2Access(lineID, now, acc)
	tbl.add(lineID, c, now)
	return c, true
}

// StallMark returns the MSHR add count of the table serving the given SMX.
// A warp records it when LoadAs rejects its load and passes it to
// LoadStillBlocked on the retry.
func (s *System) StallMark(smx int) uint64 { return s.mshrOf[smx].adds }

// LoadStillBlocked decides in O(1) whether a retry at cycle now of a load
// LoadAs rejected, with mark from StallMark or a previous call, would be
// rejected again. When it would, it returns blocked=true and the mark for
// the next retry; the retry then has no effect beyond LoadAs's own lazy
// prune, so the caller may skip LoadAs. blocked=false means the caller must
// retry through LoadAs, which may still reject.
func (s *System) LoadStillBlocked(smx int, lineAddr, mark, now uint64) (newMark uint64, blocked bool) {
	m := s.mshrOf[smx]
	if !m.stillBlocked(lineAddr/config.LineSize, mark, now) {
		return mark, false
	}
	return m.adds, true
}

// Store performs one coalesced 128-byte store transaction. Kepler L1s are
// write-through/no-allocate for global stores: the L1 is updated only if the
// line is already present, and the transaction always proceeds to the L2
// (write-allocate). Stores do not occupy MSHRs and never stall the issuing
// warp; the returned cycle is when the store drains, for accounting only.
func (s *System) Store(smx int, lineAddr, now uint64) uint64 {
	return s.StoreAs(smx, lineAddr, now, NoAccessor)
}

// StoreAs is Store carrying the accessing kernel instance's identity. The
// write-through L1 touch neither classifies nor retags; the L2 leg tags the
// allocated line and classifies an L2 hit like a load would.
func (s *System) StoreAs(smx int, lineAddr, now uint64, acc Accessor) uint64 {
	lineID := lineAddr / config.LineSize
	s.l1Of[smx].Touch(lineID)
	s.storeAccesses++
	return s.l2Access(lineID, now, acc)
}

// SetAttribution enables reuse attribution on every cache in the hierarchy.
// Off (the default), tagged accesses behave exactly like untagged ones and
// the reuse breakdowns stay zero.
func (s *System) SetAttribution(on bool) {
	for _, c := range s.l1 {
		c.SetAttribution(on)
	}
	for _, c := range s.l2 {
		c.SetAttribution(on)
	}
}

// L1Reuse returns the hit-classification breakdown aggregated over all L1s.
func (s *System) L1Reuse() ReuseStats {
	var t ReuseStats
	for _, c := range s.l1 {
		t.Add(c.Reuse())
	}
	return t
}

// L2Reuse returns the hit-classification breakdown aggregated over all L2
// banks.
func (s *System) L2Reuse() ReuseStats {
	var t ReuseStats
	for _, c := range s.l2 {
		t.Add(c.Reuse())
	}
	return t
}

// L1Stats returns the load statistics of the L1 serving the given SMX (its
// cluster's cache).
func (s *System) L1Stats(smx int) Stats { return s.l1Of[smx].Stats() }

// L1Total returns load statistics aggregated over all L1s.
func (s *System) L1Total() Stats {
	var t Stats
	for _, c := range s.l1 {
		t.Add(c.Stats())
	}
	return t
}

// L2Total returns statistics aggregated over all L2 banks (loads that missed
// L1, plus stores).
func (s *System) L2Total() Stats {
	var t Stats
	for _, c := range s.l2 {
		t.Add(c.Stats())
	}
	return t
}

// DRAMTransactions returns the number of off-chip transactions issued.
func (s *System) DRAMTransactions() int64 { return s.dramTrans }

// StoreCount returns the number of store transactions processed.
func (s *System) StoreCount() int64 { return s.storeAccesses }
