package isa

import (
	"fmt"

	"laperm/internal/config"
)

// TBBuilder assembles the program of one thread block. Methods append
// instructions across all warps of the block (mirroring SPMD source code
// where every thread executes the same statements); per-thread behaviour is
// expressed through address functions of the thread index.
type TBBuilder struct {
	tb *TB
}

// NewTB returns a builder for a thread block with the given thread count.
func NewTB(threads int) *TBBuilder {
	if threads <= 0 {
		panic(fmt.Sprintf("isa: NewTB(%d): thread count must be positive", threads))
	}
	warps := (threads + config.WarpSize - 1) / config.WarpSize
	return &TBBuilder{tb: &TB{
		Threads:            threads,
		Warps:              make([][]Inst, warps),
		RegistersPerThread: 24,
	}}
}

// Resources sets the per-thread register and per-block shared-memory demand.
func (b *TBBuilder) Resources(regsPerThread, sharedMemBytes int) *TBBuilder {
	b.tb.RegistersPerThread = regsPerThread
	b.tb.SharedMemBytes = sharedMemBytes
	return b
}

// lanesOf returns the number of active lanes in warp w.
func (b *TBBuilder) lanesOf(w int) int {
	lanes := b.tb.Threads - w*config.WarpSize
	if lanes > config.WarpSize {
		lanes = config.WarpSize
	}
	return lanes
}

// Compute appends one compute instruction of the given latency to every
// warp.
func (b *TBBuilder) Compute(latency int) *TBBuilder {
	for w := range b.tb.Warps {
		b.tb.Warps[w] = append(b.tb.Warps[w], Inst{
			Kind:        OpCompute,
			Latency:     latency,
			ActiveLanes: b.lanesOf(w),
		})
	}
	return b
}

// ComputeN appends n compute instructions of the given latency.
func (b *TBBuilder) ComputeN(latency, n int) *TBBuilder {
	for i := 0; i < n; i++ {
		b.Compute(latency)
	}
	return b
}

// Load appends one load where thread tid accesses addrFn(tid).
func (b *TBBuilder) Load(addrFn func(tid int) uint64) *TBBuilder {
	return b.mem(OpLoad, addrFn)
}

// Store appends one store where thread tid accesses addrFn(tid).
func (b *TBBuilder) Store(addrFn func(tid int) uint64) *TBBuilder {
	return b.mem(OpStore, addrFn)
}

func (b *TBBuilder) mem(kind OpKind, addrFn func(tid int) uint64) *TBBuilder {
	for w := range b.tb.Warps {
		lanes := b.lanesOf(w)
		var set lineSet
		for l := 0; l < lanes; l++ {
			set.add(addrFn(w*config.WarpSize + l))
		}
		b.tb.Warps[w] = append(b.tb.Warps[w], Inst{
			Kind:        kind,
			Lines:       set.copyOut(),
			ActiveLanes: lanes,
		})
	}
	return b
}

// lineSetBits sizes lineSet's hash table at 64 slots, so the at most
// WarpSize lines of one instruction keep its load factor at or below 1/2.
const lineSetBits = 6

// lineSet coalesces one warp instruction's lane addresses into its 128-byte
// transactions in first-touch order, exactly as Coalesce does, but in time
// linear in the lane count: a lane on the previous lane's line (the
// unit-stride case) costs one comparison, and any other lane one probe
// sequence in a small open-addressed hash set. It lives on the builder's
// stack; only the final lines are copied out.
type lineSet struct {
	lines [config.WarpSize]uint64
	n     int
	// last is the previous lane's line, valid while n > 0.
	last uint64
	// slots holds 1 + an index into lines, or 0 for an empty slot.
	slots [1 << lineSetBits]uint8
}

func (c *lineSet) add(addr uint64) {
	l := addr / config.LineSize * config.LineSize
	if c.n > 0 && l == c.last {
		return
	}
	c.last = l
	h := (l / config.LineSize * 0x9e3779b97f4a7c15) >> (64 - lineSetBits)
	for {
		i := c.slots[h]
		if i == 0 {
			c.lines[c.n] = l
			c.n++
			c.slots[h] = uint8(c.n)
			return
		}
		if c.lines[i-1] == l {
			return
		}
		h = (h + 1) & (1<<lineSetBits - 1)
	}
}

// copyOut returns the coalesced lines in a slice of exactly their length.
func (c *lineSet) copyOut() []uint64 {
	out := make([]uint64, c.n)
	copy(out, c.lines[:c.n])
	return out
}

// LoadSeq appends a coalesced load of `words` consecutive 4-byte words per
// thread starting at base: thread tid reads base + tid*4 (repeated for each
// word with a stride of blockDim words). It models the canonical
// structured-access pattern of a well-written kernel.
func (b *TBBuilder) LoadSeq(base uint64, words int) *TBBuilder {
	for i := 0; i < words; i++ {
		off := uint64(i*b.tb.Threads) * 4
		b.Load(func(tid int) uint64 { return base + off + uint64(tid)*4 })
	}
	return b
}

// StoreSeq is the store analogue of LoadSeq.
func (b *TBBuilder) StoreSeq(base uint64, words int) *TBBuilder {
	for i := 0; i < words; i++ {
		off := uint64(i*b.tb.Threads) * 4
		b.Store(func(tid int) uint64 { return base + off + uint64(tid)*4 })
	}
	return b
}

// LoadGather appends one load with an explicit per-thread address table
// (len(addrs) must equal the thread count). It models data-dependent,
// irregular accesses such as CSR neighbour expansion.
func (b *TBBuilder) LoadGather(addrs []uint64) *TBBuilder {
	if len(addrs) != b.tb.Threads {
		panic(fmt.Sprintf("isa: LoadGather: %d addresses for %d threads", len(addrs), b.tb.Threads))
	}
	return b.Load(func(tid int) uint64 { return addrs[tid] })
}

// LoadMasked appends one load with per-thread predication: thread tid
// accesses addrs[tid] only when active[tid] is true. Warps whose lanes are
// all inactive receive no instruction (the hardware analogue of a fully
// predicated-off memory op). Both slices must have one entry per thread.
func (b *TBBuilder) LoadMasked(addrs []uint64, active []bool) *TBBuilder {
	return b.memMasked(OpLoad, addrs, active)
}

// StoreMasked is the store analogue of LoadMasked.
func (b *TBBuilder) StoreMasked(addrs []uint64, active []bool) *TBBuilder {
	return b.memMasked(OpStore, addrs, active)
}

func (b *TBBuilder) memMasked(kind OpKind, addrs []uint64, mask []bool) *TBBuilder {
	if len(addrs) != b.tb.Threads || len(mask) != b.tb.Threads {
		panic(fmt.Sprintf("isa: masked op: %d addrs / %d mask entries for %d threads",
			len(addrs), len(mask), b.tb.Threads))
	}
	for w := range b.tb.Warps {
		lanes := b.lanesOf(w)
		var set lineSet
		active := 0
		for l := 0; l < lanes; l++ {
			if tid := w*config.WarpSize + l; mask[tid] {
				set.add(addrs[tid])
				active++
			}
		}
		if active == 0 {
			continue
		}
		b.tb.Warps[w] = append(b.tb.Warps[w], Inst{
			Kind:        kind,
			Lines:       set.copyOut(),
			ActiveLanes: active,
		})
	}
	return b
}

// Barrier appends a block-wide barrier to every warp.
func (b *TBBuilder) Barrier() *TBBuilder {
	for w := range b.tb.Warps {
		b.tb.Warps[w] = append(b.tb.Warps[w], Inst{
			Kind:        OpBarrier,
			ActiveLanes: b.lanesOf(w),
		})
	}
	return b
}

// Launch appends a device-side launch of child, executed by the single
// thread tid (the "direct parent" thread of Section II-C). The launch
// instruction is appended only to the warp containing tid.
func (b *TBBuilder) Launch(tid int, child *Kernel) *TBBuilder {
	if tid < 0 || tid >= b.tb.Threads {
		panic(fmt.Sprintf("isa: Launch: tid %d out of %d threads", tid, b.tb.Threads))
	}
	if child == nil || len(child.TBs) == 0 {
		panic("isa: Launch: child grid must have at least one thread block")
	}
	idx := len(b.tb.Launches)
	b.tb.Launches = append(b.tb.Launches, child)
	w := tid / config.WarpSize
	b.tb.Warps[w] = append(b.tb.Warps[w], Inst{
		Kind:        OpLaunch,
		ActiveLanes: 1,
		Launch:      idx,
	})
	return b
}

// Build finalises and returns the thread-block program.
func (b *TBBuilder) Build() *TB { return b.tb }

// KernelBuilder assembles a grid from thread-block programs.
type KernelBuilder struct {
	k *Kernel
}

// NewKernel returns a builder for a named grid.
func NewKernel(name string) *KernelBuilder {
	return &KernelBuilder{k: &Kernel{Name: name}}
}

// Add appends thread blocks to the grid.
func (b *KernelBuilder) Add(tbs ...*TB) *KernelBuilder {
	b.k.TBs = append(b.k.TBs, tbs...)
	return b
}

// Build finalises and returns the grid.
func (b *KernelBuilder) Build() *Kernel { return b.k }
