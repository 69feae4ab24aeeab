package isa

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"laperm/internal/config"
)

func TestOpKindStrings(t *testing.T) {
	want := map[OpKind]string{
		OpCompute: "compute",
		OpLoad:    "load",
		OpStore:   "store",
		OpBarrier: "barrier",
		OpLaunch:  "launch",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("OpKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if got := OpKind(99).String(); got != "OpKind(99)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestNewTBWarpCount(t *testing.T) {
	cases := []struct{ threads, warps int }{
		{1, 1}, {32, 1}, {33, 2}, {64, 2}, {65, 3}, {256, 8}, {100, 4},
	}
	for _, c := range cases {
		tb := NewTB(c.threads).Build()
		if tb.NumWarps() != c.warps {
			t.Errorf("NewTB(%d): %d warps, want %d", c.threads, tb.NumWarps(), c.warps)
		}
	}
}

func TestNewTBPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTB(0) did not panic")
		}
	}()
	NewTB(0)
}

func TestPartialWarpActiveLanes(t *testing.T) {
	tb := NewTB(40).Compute(4).Build() // 32 + 8
	if got := tb.Warps[0][0].ActiveLanes; got != 32 {
		t.Errorf("warp 0 lanes = %d, want 32", got)
	}
	if got := tb.Warps[1][0].ActiveLanes; got != 8 {
		t.Errorf("warp 1 lanes = %d, want 8", got)
	}
	if got := tb.InstCount(); got != 40 {
		t.Errorf("InstCount = %d, want 40", got)
	}
}

func TestLoadAddressesPerThread(t *testing.T) {
	// Thread tid reads tid*8, so each warp's 32 lanes span 256 bytes: two
	// lines, in lane order.
	tb := NewTB(64).Load(func(tid int) uint64 { return uint64(tid) * 8 }).Build()
	for w := 0; w < 2; w++ {
		in := tb.Warps[w][0]
		if in.Kind != OpLoad {
			t.Fatalf("warp %d inst kind = %v", w, in.Kind)
		}
		base := uint64(w) * 256
		if want := []uint64{base, base + config.LineSize}; !reflect.DeepEqual(in.Lines, want) {
			t.Errorf("warp %d lines = %v, want %v", w, in.Lines, want)
		}
		if in.ActiveLanes != config.WarpSize {
			t.Errorf("warp %d active lanes = %d, want %d", w, in.ActiveLanes, config.WarpSize)
		}
	}
}

func TestLoadSeqIsCoalesced(t *testing.T) {
	tb := NewTB(128).LoadSeq(0, 2).Build()
	// Each warp instruction should coalesce to exactly one 128-byte line.
	for w, warp := range tb.Warps {
		for i, in := range warp {
			if len(in.Lines) != 1 {
				t.Errorf("warp %d inst %d coalesces to %d lines, want 1", w, i, len(in.Lines))
			}
		}
	}
	// The two words per thread should cover distinct lines overall.
	if fp := tb.Footprint(); len(fp) != 8 {
		t.Errorf("footprint = %d blocks, want 8 (128 threads * 2 words * 4B / 128B)", len(fp))
	}
}

func TestLoadGatherValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LoadGather with wrong length did not panic")
		}
	}()
	NewTB(32).LoadGather(make([]uint64, 5))
}

func TestLaunchGoesToOwningWarp(t *testing.T) {
	child := NewKernel("child").Add(NewTB(32).Compute(1).Build()).Build()
	tb := NewTB(96).Launch(70, child).Build() // tid 70 is in warp 2
	if n := len(tb.Warps[2]); n != 1 {
		t.Fatalf("warp 2 has %d insts, want 1", n)
	}
	if tb.Warps[2][0].Kind != OpLaunch {
		t.Fatalf("warp 2 inst kind = %v, want launch", tb.Warps[2][0].Kind)
	}
	if len(tb.Warps[0]) != 0 || len(tb.Warps[1]) != 0 {
		t.Error("launch leaked into other warps")
	}
	if len(tb.Launches) != 1 || tb.Launches[0] != child {
		t.Error("Launches list not recorded")
	}
}

func TestLaunchPanics(t *testing.T) {
	child := NewKernel("c").Add(NewTB(32).Compute(1).Build()).Build()
	for _, f := range []func(){
		func() { NewTB(32).Launch(40, child) },
		func() { NewTB(32).Launch(-1, child) },
		func() { NewTB(32).Launch(0, nil) },
		func() { NewTB(32).Launch(0, NewKernel("empty").Build()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestKernelValidate(t *testing.T) {
	good := NewKernel("good").Add(
		NewTB(64).Compute(2).LoadSeq(0, 1).Barrier().Build(),
	).Build()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}

	// Hand-build broken kernels.
	broken := []*Kernel{
		{Name: "zero-threads", TBs: []*TB{{Threads: 0, Warps: nil}}},
		{Name: "warp-mismatch", TBs: []*TB{{Threads: 64, Warps: make([][]Inst, 1)}}},
		{Name: "bad-lanes", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpCompute, Latency: 1, ActiveLanes: 33}}}}}},
		{Name: "bad-latency", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpCompute, Latency: 0, ActiveLanes: 32}}}}}},
		{Name: "no-lines", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpLoad, ActiveLanes: 32}}}}}},
		{Name: "empty-lines", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpStore, Lines: []uint64{}, ActiveLanes: 32}}}}}},
		{Name: "lines-exceed-lanes", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpLoad, Lines: make([]uint64, 4), ActiveLanes: 3}}}}}},
		{Name: "bad-launch-index", TBs: []*TB{{Threads: 32, Warps: [][]Inst{{{Kind: OpLaunch, ActiveLanes: 1, Launch: 0}}}}}},
	}
	for _, k := range broken {
		if err := k.Validate(); err == nil {
			t.Errorf("kernel %q: Validate accepted broken program", k.Name)
		}
	}
}

func TestValidateRecursesIntoChildren(t *testing.T) {
	badChild := &Kernel{Name: "bad", TBs: []*TB{{Threads: 0}}}
	parentTB := NewTB(32).Build()
	parentTB.Launches = append(parentTB.Launches, badChild)
	parentTB.Warps[0] = append(parentTB.Warps[0], Inst{Kind: OpLaunch, ActiveLanes: 1, Launch: 0})
	parent := NewKernel("p").Add(parentTB).Build()
	if err := parent.Validate(); err == nil {
		t.Fatal("Validate did not recurse into launched child")
	}
}

func TestWalkVisitsAllGrids(t *testing.T) {
	leaf := NewKernel("leaf").Add(NewTB(32).Compute(1).Build()).Build()
	mid := NewKernel("mid").Add(NewTB(32).Launch(0, leaf).Build()).Build()
	root := NewKernel("root").Add(
		NewTB(32).Launch(0, mid).Build(),
		NewTB(32).Compute(1).Build(),
	).Build()

	var names []string
	var parents []string
	root.Walk(func(p, c *Kernel) {
		names = append(names, c.Name)
		if p == nil {
			parents = append(parents, "<nil>")
		} else {
			parents = append(parents, p.Name)
		}
	})
	if !reflect.DeepEqual(names, []string{"root", "mid", "leaf"}) {
		t.Errorf("Walk order = %v", names)
	}
	if !reflect.DeepEqual(parents, []string{"<nil>", "root", "mid"}) {
		t.Errorf("Walk parents = %v", parents)
	}
}

func TestInstCounts(t *testing.T) {
	leaf := NewKernel("leaf").Add(NewTB(32).ComputeN(1, 3).Build()).Build() // 96
	root := NewKernel("root").Add(NewTB(64).Compute(1).Launch(0, leaf).Build()).Build()
	if got := root.InstCount(); got != 65 { // 64 compute lanes + 1 launch lane
		t.Errorf("InstCount = %d, want 65", got)
	}
	if got := root.TotalInstCount(); got != 65+96 {
		t.Errorf("TotalInstCount = %d, want %d", got, 65+96)
	}
}

func TestCoalesceOrderAndDedup(t *testing.T) {
	addrs := []uint64{0, 4, 128, 12, 256, 130}
	got := Coalesce(addrs)
	want := []uint64{0, 128, 256}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Coalesce = %v, want %v", got, want)
	}
}

// Property: coalescing never produces more transactions than addresses, every
// address is covered by a produced line, and lines are unique.
func TestCoalesceProperties(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		addrs := make([]uint64, len(raw))
		for i, r := range raw {
			addrs[i] = uint64(r)
		}
		lines := Coalesce(addrs)
		if len(lines) > len(addrs) {
			return false
		}
		set := make(map[uint64]bool)
		for _, l := range lines {
			if l%config.LineSize != 0 {
				return false
			}
			if set[l] {
				return false // duplicate transaction
			}
			set[l] = true
		}
		for _, a := range addrs {
			if !set[a/config.LineSize*config.LineSize] {
				return false // uncovered address
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: a random structured program built through the builder always
// validates, and its footprint block count is bounded by its distinct
// memory addresses.
func TestBuilderProgramsAlwaysValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		threads := 1 + rng.Intn(256)
		b := NewTB(threads)
		nops := 1 + rng.Intn(20)
		for i := 0; i < nops; i++ {
			switch rng.Intn(4) {
			case 0:
				b.Compute(1 + rng.Intn(16))
			case 1:
				base := uint64(rng.Intn(1 << 20))
				b.Load(func(tid int) uint64 { return base + uint64(tid)*4 })
			case 2:
				base := uint64(rng.Intn(1 << 20))
				b.Store(func(tid int) uint64 { return base + uint64(tid)*8 })
			case 3:
				b.Barrier()
			}
		}
		k := NewKernel("fuzz").Add(b.Build()).Build()
		if err := k.Validate(); err != nil {
			t.Fatalf("trial %d: builder produced invalid program: %v", trial, err)
		}
	}
}

func TestResources(t *testing.T) {
	tb := NewTB(128).Resources(32, 4096).Build()
	if tb.Registers() != 32*128 {
		t.Errorf("Registers = %d, want %d", tb.Registers(), 32*128)
	}
	if tb.SharedMemBytes != 4096 {
		t.Errorf("SharedMemBytes = %d, want 4096", tb.SharedMemBytes)
	}
}

func TestFootprintEmptyForComputeOnly(t *testing.T) {
	tb := NewTB(32).ComputeN(1, 5).Barrier().Build()
	if fp := tb.Footprint(); len(fp) != 0 {
		t.Errorf("compute-only footprint = %v, want empty", fp)
	}
}

func TestFootprintSortedUnique(t *testing.T) {
	tb := NewTB(32).
		Load(func(tid int) uint64 { return uint64(tid%4) * 128 }).
		Load(func(tid int) uint64 { return 512 }).
		Build()
	fp := tb.Footprint()
	want := []uint64{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(fp, want) {
		t.Errorf("Footprint = %v, want %v", fp, want)
	}
}

func TestLoadMaskedLaneCompaction(t *testing.T) {
	addrs := make([]uint64, 64)
	active := make([]bool, 64)
	// Activate threads 3, 40, 41 only.
	for _, tid := range []int{3, 40, 41} {
		addrs[tid] = uint64(tid) * 256
		active[tid] = true
	}
	tb := NewTB(64).LoadMasked(addrs, active).Build()
	// Warp 0 carries one active lane, warp 1 two.
	if n := len(tb.Warps[0]); n != 1 {
		t.Fatalf("warp 0 insts = %d", n)
	}
	if got := tb.Warps[0][0]; got.ActiveLanes != 1 || !reflect.DeepEqual(got.Lines, []uint64{3 * 256}) {
		t.Errorf("warp 0 inst = %+v", got)
	}
	if got := tb.Warps[1][0]; got.ActiveLanes != 2 || !reflect.DeepEqual(got.Lines, []uint64{40 * 256, 41 * 256}) {
		t.Errorf("warp 1 inst = %+v", got)
	}
}

func TestLoadMaskedSkipsFullyInactiveWarps(t *testing.T) {
	addrs := make([]uint64, 64)
	active := make([]bool, 64)
	active[0] = true // only warp 0 active
	tb := NewTB(64).LoadMasked(addrs, active).Build()
	if len(tb.Warps[1]) != 0 {
		t.Error("fully inactive warp received an instruction")
	}
	if err := NewKernel("k").Add(tb).Build().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreMaskedKind(t *testing.T) {
	addrs := make([]uint64, 32)
	active := make([]bool, 32)
	active[5] = true
	tb := NewTB(32).StoreMasked(addrs, active).Build()
	if tb.Warps[0][0].Kind != OpStore {
		t.Errorf("kind = %v", tb.Warps[0][0].Kind)
	}
}

func TestMaskedLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched mask length")
		}
	}()
	NewTB(32).LoadMasked(make([]uint64, 32), make([]bool, 8))
}

func TestStoreSeqAddressing(t *testing.T) {
	tb := NewTB(64).StoreSeq(1024, 2).Build()
	if len(tb.Warps[0]) != 2 {
		t.Fatalf("insts = %d", len(tb.Warps[0]))
	}
	// Word 1 starts after 64 threads * 4 bytes.
	if got := tb.Warps[0][1].Lines[0]; got != 1024+256 {
		t.Errorf("second word base = %d, want %d", got, 1024+256)
	}
	if tb.Warps[0][0].Kind != OpStore {
		t.Error("StoreSeq produced non-store")
	}
}

// scatterAddrs returns one address per thread drawn from a span of lines
// small enough that lanes collide on lines, unaligned within each line.
func scatterAddrs(rng *rand.Rand, threads, spanLines int) []uint64 {
	addrs := make([]uint64, threads)
	for i := range addrs {
		addrs[i] = 1<<20 + uint64(rng.Intn(spanLines*config.LineSize))
	}
	return addrs
}

// TestBuilderLinesMatchCoalesce checks every memory builder against the
// reference: each warp instruction's Lines is Coalesce of its active lanes'
// addresses, and ActiveLanes counts those lanes. 70 threads leave a
// six-lane last warp; the masks switch lanes off at random and switch off
// every lane of warp 1, which must then receive no instruction.
func TestBuilderLinesMatchCoalesce(t *testing.T) {
	const threads = 70
	rng := rand.New(rand.NewSource(7))
	addrs := scatterAddrs(rng, threads, 40)
	mask := make([]bool, threads)
	for tid := range mask {
		mask[tid] = tid/config.WarpSize != 1 && rng.Intn(3) != 0
	}
	all := make([]bool, threads)
	for tid := range all {
		all[tid] = true
	}
	cases := []struct {
		name string
		kind OpKind
		mask []bool
		tb   *TB
	}{
		{"Load", OpLoad, all, NewTB(threads).Load(func(tid int) uint64 { return addrs[tid] }).Build()},
		{"LoadGather", OpLoad, all, NewTB(threads).LoadGather(addrs).Build()},
		{"LoadMasked", OpLoad, mask, NewTB(threads).LoadMasked(addrs, mask).Build()},
		{"StoreMasked", OpStore, mask, NewTB(threads).StoreMasked(addrs, mask).Build()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for w, warp := range c.tb.Warps {
				var lanes []uint64
				for tid := w * config.WarpSize; tid < threads && tid < (w+1)*config.WarpSize; tid++ {
					if c.mask[tid] {
						lanes = append(lanes, addrs[tid])
					}
				}
				if len(lanes) == 0 {
					if len(warp) != 0 {
						t.Errorf("warp %d: %d instructions for no active lane", w, len(warp))
					}
					continue
				}
				if len(warp) != 1 {
					t.Fatalf("warp %d: %d instructions, want 1", w, len(warp))
				}
				in := warp[0]
				if in.Kind != c.kind {
					t.Errorf("warp %d: kind %v, want %v", w, in.Kind, c.kind)
				}
				if in.ActiveLanes != len(lanes) {
					t.Errorf("warp %d: %d active lanes, want %d", w, in.ActiveLanes, len(lanes))
				}
				if want := Coalesce(lanes); !reflect.DeepEqual(in.Lines, want) {
					t.Errorf("warp %d: lines %v, want Coalesce %v", w, in.Lines, want)
				}
			}
			if err := NewKernel(c.name).Add(c.tb).Build().Validate(); err != nil {
				t.Error(err)
			}
		})
	}
	if got := cases[0].tb.Warps[2][0].ActiveLanes; got != threads-2*config.WarpSize {
		t.Errorf("partial last warp: %d active lanes, want %d", got, threads-2*config.WarpSize)
	}
}

// Property: the builder's linear-time dedupe (lineSet) agrees with the
// Coalesce reference on any warp's worth of addresses, over spans from one
// line (every lane collides) to far more lines than lanes (hash probing
// with few collisions).
func TestLineSetMatchesCoalesce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		lanes := 1 + rng.Intn(config.WarpSize)
		span := 1 + rng.Intn(4*config.WarpSize)
		if trial%4 == 0 {
			span = 1 << 20
		}
		addrs := make([]uint64, lanes)
		for i := range addrs {
			addrs[i] = uint64(rng.Int63n(int64(span) * config.LineSize))
			if trial%3 == 0 && i > 0 && rng.Intn(2) == 0 {
				addrs[i] = addrs[i-1] + 4 // unit stride: the last-line fast path
			}
		}
		var set lineSet
		for _, a := range addrs {
			set.add(a)
		}
		if got, want := set.copyOut(), Coalesce(addrs); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: lineSet %v, Coalesce %v (addrs %v)", trial, got, want, addrs)
		}
	}
}
