package ipukernel

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipu"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

func dnaCfg(x int) Config {
	return Config{
		Params: core.Params{Scorer: scoring.DNADefault, Gap: -1, X: x, DeltaB: 256},
	}
}

// buildBatch places one uniform synthetic comparison per tile. Tiles
// reference the dataset's shared arena slab, as the partitioner builds
// them.
func buildBatch(t *testing.T, count, length int, errRate float64, seed int64) (*Batch, *synth.Dataset) {
	t.Helper()
	d := synth.UniformPairs(synth.UniformPairsSpec{
		Count: count, Length: length, ErrorRate: errRate, SeedLen: 17, Seed: seed,
	})
	arena, plan := d.Spine()
	b := &Batch{}
	for i := 0; i < plan.Len(); i++ {
		c := plan.At(i)
		b.Tiles = append(b.Tiles, TileWork{
			Slabs: arena.SlabViews(),
			Seqs:  []workload.SeqRef{arena.Ref(c.H), arena.Ref(c.V)},
			Jobs:  []SeedJob{{HLocal: 0, VLocal: 1, SeedH: c.SeedH, SeedV: c.SeedV, SeedLen: c.SeedLen, GlobalID: i}},
		})
	}
	return b, d
}

func TestRunBasic(t *testing.T) {
	dev := ipu.New(ipu.Config{Model: platform.GC200})
	b, d := buildBatch(t, 20, 600, 0.15, 1)
	res, err := Run(dev, b, dnaCfg(15))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out) != 20 {
		t.Fatalf("got %d outputs", len(res.Out))
	}
	for i, o := range res.Out {
		if o.GlobalID != i {
			t.Errorf("output %d has GlobalID %d", i, o.GlobalID)
		}
		if o.Score < 17 { // at least the seed must match
			t.Errorf("output %d score %d below seed score", i, o.Score)
		}
		c := d.Comparisons[i]
		if o.BegH > c.SeedH || o.EndH < c.SeedH+c.SeedLen {
			t.Errorf("output %d does not span the seed", i)
		}
	}
	if res.Seconds <= 0 || res.Cells <= 0 || res.TheoreticalCells <= 0 {
		t.Errorf("bad accounting: %+v", res)
	}
	if dev.Stats().Supersteps != 1 {
		t.Error("superstep not accounted")
	}
}

// TestKernelMatchesDirectExtension: the kernel must produce exactly the
// scores ExtendSeed produces — the IPU mapping changes scheduling, never
// results.
func TestKernelMatchesDirectExtension(t *testing.T) {
	for _, cfgMut := range []func(*Config){
		func(c *Config) {},
		func(c *Config) { c.LRSplit = true },
		func(c *Config) { c.LRSplit = true; c.WorkStealing = true; c.BusyWaitVariance = true },
		func(c *Config) { c.DualIssue = true },
		func(c *Config) { c.Threads = 1 },
	} {
		dev := ipu.New(ipu.Config{Model: platform.GC200})
		b, d := buildBatch(t, 12, 500, 0.1, 2)
		cfg := dnaCfg(10)
		cfgMut(&cfg)
		res, err := Run(dev, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range res.Out {
			c := d.Comparisons[i]
			want, err := core.ExtendSeed(d.Sequences[c.H], d.Sequences[c.V],
				core.Seed{H: c.SeedH, V: c.SeedV, Len: c.SeedLen}, cfg.Params)
			if err != nil {
				t.Fatal(err)
			}
			if o.Score != want.Score || o.LeftScore != want.LeftScore || o.RightScore != want.RightScore {
				t.Fatalf("cmp %d: kernel %+v != direct %+v", i, o, want)
			}
			if o.BegH != want.BegH || o.EndH != want.EndH || o.BegV != want.BegV || o.EndV != want.EndV {
				t.Fatalf("cmp %d: kernel span != direct span", i)
			}
		}
	}
}

func TestMultiJobTileSharedSequences(t *testing.T) {
	// One tile holding 4 sequences and 5 jobs reusing them (the graph
	// partitioning payoff, §4.3).
	rng := rand.New(rand.NewSource(3))
	seqs := make([][]byte, 4)
	base := synth.RandDNA(rng, 800)
	prof := synth.UniformDNA(0.1)
	for i := range seqs {
		seqs[i] = prof.Apply(rng, base)
		if len(seqs[i]) < 400 {
			t.Fatal("mutation shrank sequence too much")
		}
	}
	var jobs []SeedJob
	for k := 0; k < 5; k++ {
		a, b := k%4, (k+1)%4
		jobs = append(jobs, SeedJob{HLocal: a, VLocal: b, SeedH: 100, SeedV: 100, SeedLen: 17, GlobalID: k})
	}
	// Plant exact seeds.
	for _, j := range jobs {
		synth.PlantSeed(seqs[j.HLocal], seqs[j.VLocal], j.SeedH, j.SeedV, j.SeedLen)
	}
	tile := TileWork{Jobs: jobs}
	for _, s := range seqs {
		tile.AddSeq(s)
	}
	b := &Batch{Tiles: []TileWork{tile}}
	dev := ipu.New(ipu.Config{Model: platform.GC200})
	cfg := dnaCfg(10)
	cfg.LRSplit = true
	cfg.WorkStealing = true
	cfg.BusyWaitVariance = true
	res, err := Run(dev, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StealOps == 0 {
		t.Error("work stealing never engaged")
	}
	if len(res.Out) != 5 {
		t.Fatalf("got %d outputs", len(res.Out))
	}
	// Transfer accounting must charge each sequence once, not per job.
	wantSeqBytes := 0
	for _, s := range seqs {
		wantSeqBytes += len(s)
	}
	wantIn := int64(wantSeqBytes + 4*seqDescrBytes + 5*JobTupleBytes + batchHdrBytes)
	if res.HostBytesIn != wantIn {
		t.Errorf("HostBytesIn = %d, want %d", res.HostBytesIn, wantIn)
	}
}

// TestUniqueSeqBytes covers the span merge behind the exact §4.1 payload
// stat: duplicates, overlaps and adjacent spans collapse, disjoint spans
// sum, and SeqBytes (per-descriptor accounting) stays the upper bound.
func TestUniqueSeqBytes(t *testing.T) {
	empty := TileWork{}
	if got := empty.UniqueSeqBytes(); got != 0 {
		t.Errorf("empty tile UniqueSeqBytes = %d", got)
	}
	tile := TileWork{
		Slabs: [][]byte{make([]byte, 100)},
		Seqs: []workload.SeqRef{
			{Off: 40, Len: 5},  // disjoint, out of order
			{Off: 10, Len: 10}, // base span
			{Off: 10, Len: 10}, // exact duplicate (interned sequence)
			{Off: 15, Len: 10}, // overlaps base
			{Off: 25, Len: 5},  // adjacent to the merged run
		},
	}
	// Coverage: [10,30) ∪ [40,45) = 25 bytes; descriptors charge 40.
	if got := tile.UniqueSeqBytes(); got != 25 {
		t.Errorf("UniqueSeqBytes = %d, want 25", got)
	}
	if got := tile.SeqBytes(); got != 40 {
		t.Errorf("SeqBytes = %d, want 40", got)
	}
	if tile.UniqueSeqBytes() > tile.SeqBytes() {
		t.Error("unique payload exceeds per-descriptor payload")
	}
}

// TestUniqueSeqBytesInRun: a tile listing an arena sequence twice (the
// Copies mode) charges it per descriptor in HostBytesIn but once in
// UniqueSeqBytesIn.
func TestUniqueSeqBytesInRun(t *testing.T) {
	d := synth.UniformPairs(synth.UniformPairsSpec{
		Count: 1, Length: 400, ErrorRate: 0.15, SeedLen: 17, Seed: 12})
	arena, _ := d.Spine()
	c := d.Comparisons[0]
	tile := TileWork{
		Slabs: arena.SlabViews(),
		Seqs:  []workload.SeqRef{arena.Ref(c.H), arena.Ref(c.V), arena.Ref(c.H)},
		Jobs: []SeedJob{
			{HLocal: 0, VLocal: 1, SeedH: c.SeedH, SeedV: c.SeedV, SeedLen: c.SeedLen, GlobalID: 0},
			{HLocal: 2, VLocal: 1, SeedH: c.SeedH, SeedV: c.SeedV, SeedLen: c.SeedLen, GlobalID: 1},
		},
	}
	dev := ipu.New(ipu.Config{Model: platform.GC200})
	res, err := Run(dev, &Batch{Tiles: []TileWork{tile}}, dnaCfg(10))
	if err != nil {
		t.Fatal(err)
	}
	hn, vn := len(d.Sequences[c.H]), len(d.Sequences[c.V])
	if want := int64(2*hn + vn); res.HostBytesIn-int64(3*seqDescrBytes+2*JobTupleBytes+batchHdrBytes) != want {
		t.Errorf("per-descriptor sequence payload = %d, want %d",
			res.HostBytesIn-int64(3*seqDescrBytes+2*JobTupleBytes+batchHdrBytes), want)
	}
	if want := int64(hn + vn); res.UniqueSeqBytesIn != want {
		t.Errorf("UniqueSeqBytesIn = %d, want %d (duplicate span charged once)", res.UniqueSeqBytesIn, want)
	}
	if res.Out[0].Score != res.Out[1].Score {
		t.Error("duplicate-span job scored differently")
	}
}

func TestSRAMRejection(t *testing.T) {
	// A tile with sequences larger than the SRAM budget must be refused.
	big := make([]byte, 300*1024)
	for i := range big {
		big[i] = "ACGT"[i%4]
	}
	tile := TileWork{Jobs: []SeedJob{{HLocal: 0, VLocal: 1, SeedH: 0, SeedV: 0, SeedLen: 17}}}
	tile.AddSeq(big)
	tile.AddSeq(big)
	b := &Batch{Tiles: []TileWork{tile}}
	dev := ipu.New(ipu.Config{Model: platform.GC200})
	if _, err := Run(dev, b, dnaCfg(10)); err == nil {
		t.Fatal("oversized tile accepted")
	}
}

func TestStandard3NeedsMoreSRAM(t *testing.T) {
	cfg := dnaCfg(10)
	all := make([]byte, 20000)
	for i := range all {
		all[i] = 'A'
	}
	tile := &TileWork{
		Jobs: []SeedJob{{HLocal: 0, VLocal: 1, SeedH: 10000, SeedV: 10000, SeedLen: 17}},
	}
	tile.AddSeq(all)
	tile.AddSeq(all)
	restricted := cfg.TileMemoryBytes(tile, platform.GC200)
	cfg.Params.Algo = core.AlgoStandard3
	standard := cfg.TileMemoryBytes(tile, platform.GC200)
	if standard <= restricted {
		t.Errorf("standard3 footprint %d not above restricted %d", standard, restricted)
	}
	// For 20 kb extensions the standard algorithm cannot fit six threads
	// of 3δ buffers in 624 KB — the paper's motivation (§3, §4.1).
	if standard < platform.GC200.DataSRAM() {
		t.Errorf("standard3 on 20kb pairs should exceed tile SRAM, got %d < %d",
			standard, platform.GC200.DataSRAM())
	}
	if restricted > platform.GC200.DataSRAM() {
		t.Errorf("restricted on 20kb pairs should fit tile SRAM, got %d", restricted)
	}
}

func TestWorkBufBytesPerThread(t *testing.T) {
	cfg := dnaCfg(10) // δb = 256
	if got := cfg.WorkBufBytesPerThread(10000); got != 2*256*4 {
		t.Errorf("restricted buf = %d, want %d", got, 2*256*4)
	}
	cfg.Params.DeltaB = 0
	if got := cfg.WorkBufBytesPerThread(10000); got != 2*10001*4 {
		t.Errorf("unbounded restricted buf = %d", got)
	}
	cfg.Params.Algo = core.AlgoStandard3
	if got := cfg.WorkBufBytesPerThread(10000); got != 3*10001*4 {
		t.Errorf("standard buf = %d", got)
	}
	cfg.Params.Algo = core.AlgoAffine
	if got := cfg.WorkBufBytesPerThread(10000); got != 7*10001*4 {
		t.Errorf("affine buf = %d", got)
	}
}

// TestNarrowWorkBytesHalved pins the narrow tier's accounting: on a
// headroom-certified tile TierAuto charges exactly half the TierWide
// working-buffer bytes, for every variant.
func TestNarrowWorkBytesHalved(t *testing.T) {
	dna := scoring.DNADefault
	for _, tc := range []struct {
		name string
		p    core.Params
		wide int
	}{
		{"restricted2", core.Params{Scorer: dna, Gap: -1, X: 15, DeltaB: 256}, 2048},
		{"standard3", core.Params{Scorer: dna, Gap: -1, X: 15, Algo: core.AlgoStandard3}, 10812},
		{"affine", core.Params{Scorer: dna, Gap: -1, GapOpen: -2, X: 21, Algo: core.AlgoAffine}, 25228},
	} {
		wide := Config{Params: tc.p, KernelTier: TierWide}.WorkBufBytesPerThread(900)
		auto := Config{Params: tc.p, KernelTier: TierAuto}.WorkBufBytesPerThread(900)
		if wide != tc.wide || auto*2 != wide {
			t.Errorf("%s: wide %d (want %d), auto %d (want exactly half)", tc.name, wide, tc.wide, auto)
		}
	}
}

// TestNarrowIneligibleFallsBackWide: parameters outside the int16 lanes'
// eligibility envelope are charged int32 even under TierAuto, and the
// kernel run is identical to an explicit TierWide run.
func TestNarrowIneligibleFallsBackWide(t *testing.T) {
	dna := scoring.DNADefault
	for _, tc := range []struct {
		name string
		p    core.Params
		wide int
	}{
		{"x", core.Params{Scorer: dna, Gap: -1, X: maxNarrowX + 1, DeltaB: 256}, 2048},
		{"gap", core.Params{Scorer: dna, Gap: -(maxNarrowGap + 1), X: 15, Algo: core.AlgoStandard3}, 10812},
		{"gap-open", core.Params{Scorer: dna, Gap: -1, GapOpen: -(maxNarrowGap + 1), X: 15, Algo: core.AlgoAffine}, 25228},
	} {
		wideCfg := Config{Params: tc.p, KernelTier: TierWide}
		autoCfg := Config{Params: tc.p, KernelTier: TierAuto}
		if got := autoCfg.WorkBufBytesPerThread(900); got != tc.wide {
			t.Errorf("%s: TierAuto charges %d, want the int32 %d", tc.name, got, tc.wide)
		}
		b, _ := buildBatch(t, 6, 300, 0.1, 1604)
		wide, err := Run(ipu.New(ipu.Config{Model: platform.GC200}), b, wideCfg)
		if err != nil {
			t.Fatal(err)
		}
		auto, err := Run(ipu.New(ipu.Config{Model: platform.GC200}), b, autoCfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(auto.Out, wide.Out) || auto.Seconds != wide.Seconds {
			t.Errorf("%s: TierAuto run differs from TierWide (seconds %g vs %g)",
				tc.name, auto.Seconds, wide.Seconds)
		}
	}
}

// TestWorkBufBytesPerThreadTiers pins the score-width charge of both
// tiers past the int16 headroom cap and where no int16 lanes apply:
// TierAuto provisions int32 buffers plus int16 buffers sized to the
// headroom cap for a mixed tile past it (+9 matches cap min(m,n) at
// 3583), and charges int32 for the Reference oracle and a config without
// a scorer.
func TestWorkBufBytesPerThreadTiers(t *testing.T) {
	dna, s9 := scoring.DNADefault, scoring.NewSimple(9, -9)
	cases := []struct {
		name       string
		p          core.Params
		maxMin     int
		wide, auto int
	}{
		{"restricted2-at-cap", core.Params{Scorer: s9, Gap: -3, X: 50, DeltaB: 256}, 3583, 2048, 1024},
		{"restricted2-over-cap", core.Params{Scorer: s9, Gap: -3, X: 50, DeltaB: 256}, 3584, 2048, 3072},
		{"standard3-at-cap", core.Params{Scorer: s9, Gap: -3, X: 50, Algo: core.AlgoStandard3}, 3583, 43008, 21504},
		{"standard3-over-cap", core.Params{Scorer: s9, Gap: -3, X: 50, Algo: core.AlgoStandard3}, 3584, 43020, 64524},
		{"affine-over-cap", core.Params{Scorer: s9, Gap: -3, GapOpen: -5, X: 50, Algo: core.AlgoAffine}, 5000, 140028, 190204},
		{"blosum-over-cap", core.Params{Scorer: scoring.Blosum62, Gap: -2, X: 49, DeltaB: 256}, 3583, 2048, 3072},
		{"reference", core.Params{Scorer: dna, Gap: -1, X: 15, Algo: core.AlgoReference}, 100, 40804, 40804},
		{"no-scorer", core.Params{Gap: -1, X: 15, Algo: core.AlgoStandard3}, 900, 10812, 10812},
	}
	for _, tc := range cases {
		for _, tier := range []struct {
			t    Tier
			want int
		}{{TierWide, tc.wide}, {TierAuto, tc.auto}} {
			cfg := Config{Params: tc.p, KernelTier: tier.t}
			if got := cfg.WorkBufBytesPerThread(tc.maxMin); got != tier.want {
				t.Errorf("%s/%v: WorkBufBytesPerThread(%d) = %d, want %d",
					tc.name, tier.t, tc.maxMin, got, tier.want)
			}
		}
	}
}

// TestTierAutoDefersCertifiedTraces: an extension TierAuto charges on
// int16 lanes is modeled on the narrow codelet, which has no fused
// recorder, so its trace arena is always charged to the deferred replay
// pool; past the headroom cap it fuses exactly as under TierWide.
func TestTierAutoDefersCertifiedTraces(t *testing.T) {
	p := core.Params{Scorer: scoring.NewSimple(9, -9), Gap: -3, X: 50, DeltaB: 256}
	for _, tc := range []struct {
		mode   core.TraceMode
		lh, lv int
	}{
		{core.TraceModeAuto, 100, 100},
		{core.TraceModeFused, 100, 100},
		{core.TraceModeFused, 5000, 100},
		{core.TraceModeFused, 3584, 3600},
	} {
		b := Config{Params: p, Traceback: true, TraceMode: tc.mode}.ExtensionTraceBytes(tc.lh, tc.lv)
		for _, tier := range []Tier{TierWide, TierAuto} {
			cfg := Config{Params: p, Traceback: true, TraceMode: tc.mode, KernelTier: tier}
			want := [2]int{0, b}
			if tier == TierWide || min(tc.lh, tc.lv) > 3583 {
				want = [2]int{b, 0}
			}
			if fused, replay := cfg.TraceCharges(tc.lh, tc.lv); [2]int{fused, replay} != want {
				t.Errorf("%v %v %dx%d: charges fused %d replay %d, want %v",
					tier, tc.mode, tc.lh, tc.lv, fused, replay, want)
			}
		}
	}
}

// TestThreadScalingSpeedsUp reproduces the Table 1 mechanism: more
// threads per tile shorten the modeled superstep.
func TestThreadScalingSpeedsUp(t *testing.T) {
	mk := func(threads int) float64 {
		dev := ipu.New(ipu.Config{Model: platform.GC200})
		// One tile, 12 equal jobs.
		d := synth.UniformPairs(synth.UniformPairsSpec{Count: 12, Length: 400, ErrorRate: 0.15, SeedLen: 17, Seed: 4})
		arena, _ := d.Spine()
		tile := TileWork{Slabs: arena.SlabViews()}
		for i, c := range d.Comparisons {
			tile.Seqs = append(tile.Seqs, arena.Ref(c.H), arena.Ref(c.V))
			tile.Jobs = append(tile.Jobs, SeedJob{
				HLocal: 2 * i, VLocal: 2*i + 1,
				SeedH: c.SeedH, SeedV: c.SeedV, SeedLen: c.SeedLen, GlobalID: i,
			})
		}
		cfg := dnaCfg(15)
		cfg.Threads = threads
		res, err := Run(dev, &Batch{Tiles: []TileWork{tile}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	t1 := mk(1)
	t6 := mk(6)
	speedup := t1 / t6
	if speedup < 4.0 || speedup > 6.001 {
		t.Errorf("6-thread speedup = %.2f, want within (4, 6]", speedup)
	}
}

// TestDualIssueSpeedsUp reproduces §4.1.4's ~1.3×.
func TestDualIssueSpeedsUp(t *testing.T) {
	run := func(dual bool) float64 {
		dev := ipu.New(ipu.Config{Model: platform.GC200})
		b, _ := buildBatch(t, 10, 500, 0.15, 5)
		cfg := dnaCfg(15)
		cfg.DualIssue = dual
		res, err := Run(dev, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	ratio := run(false) / run(true)
	if ratio < 1.2 || ratio > 1.4 {
		t.Errorf("dual-issue speedup %.3f, want ≈1.3", ratio)
	}
}

// TestWorkStealingBalancesVariance: with variable-cost jobs on one tile,
// stealing must beat static round-robin (§4.1.3: 1.44× on real data).
func TestWorkStealingBalancesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tile := TileWork{}
	// 18 jobs with wildly varying lengths (cost variance).
	for i := 0; i < 18; i++ {
		n := 200 + rng.Intn(1400)
		h := synth.RandDNA(rng, n)
		v := synth.UniformDNA(0.12).Apply(rng, h)
		if len(v) < 100 {
			t.Fatal("sequence too short")
		}
		sh := n / 2
		if sh+17 > len(v) {
			sh = len(v) - 17
		}
		synth.PlantSeed(h, v, sh, sh, 17)
		tile.AddSeq(h)
		tile.AddSeq(v)
		tile.Jobs = append(tile.Jobs, SeedJob{HLocal: 2 * i, VLocal: 2*i + 1, SeedH: sh, SeedV: sh, SeedLen: 17, GlobalID: i})
	}
	run := func(ws bool) float64 {
		dev := ipu.New(ipu.Config{Model: platform.GC200})
		cfg := dnaCfg(15)
		cfg.LRSplit = true
		cfg.WorkStealing = ws
		cfg.BusyWaitVariance = true
		res, err := Run(dev, &Batch{Tiles: []TileWork{tile}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	static := run(false)
	stealing := run(true)
	if stealing >= static {
		t.Errorf("work stealing (%.3gs) did not beat static assignment (%.3gs)", stealing, static)
	}
}

// TestEventualWorkStealingReducesRaces reproduces §4.1.3: without the
// busy-wait variance, deterministic latencies make tied threads steal the
// same unit perpetually; the busy-wait breaks the ties.
func TestEventualWorkStealingReducesRaces(t *testing.T) {
	// Uniform jobs → identical costs → maximal tie pressure.
	b, _ := buildBatch(t, 1, 300, 0.15, 7)
	// Pack 24 identical jobs on one tile.
	tile := TileWork{Slabs: b.Tiles[0].Slabs, Seqs: b.Tiles[0].Seqs}
	for k := 0; k < 24; k++ {
		j := b.Tiles[0].Jobs[0]
		j.GlobalID = k
		tile.Jobs = append(tile.Jobs, j)
	}
	run := func(busyWait bool) int {
		dev := ipu.New(ipu.Config{Model: platform.GC200})
		cfg := dnaCfg(15)
		cfg.WorkStealing = true
		cfg.BusyWaitVariance = busyWait
		res, err := Run(dev, &Batch{Tiles: []TileWork{tile}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Races
	}
	racy := run(false)
	eventual := run(true)
	if racy == 0 {
		t.Fatal("expected races with identical unit costs and no busy-wait")
	}
	if eventual >= racy {
		t.Errorf("busy-wait variance did not reduce races: %d -> %d", racy, eventual)
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	dev := ipu.New(ipu.Config{Model: platform.GC200})
	b, _ := buildBatch(t, 1, 100, 0.1, 8)
	cfg := Config{Params: core.Params{Scorer: scoring.DNADefault, Gap: 1, X: 5}}
	if _, err := Run(dev, b, cfg); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := Run(dev, &Batch{Tiles: make([]TileWork, 2000)}, dnaCfg(5)); err == nil {
		t.Error("too many tiles accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *BatchResult {
		dev := ipu.New(ipu.Config{Model: platform.GC200})
		b, _ := buildBatch(t, 16, 400, 0.2, 9)
		cfg := dnaCfg(12)
		cfg.LRSplit = true
		cfg.WorkStealing = true
		cfg.BusyWaitVariance = true
		res, err := Run(dev, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Seconds != b.Seconds || a.Races != b.Races || a.Cells != b.Cells {
		t.Error("kernel run not deterministic")
	}
	for i := range a.Out {
		if a.Out[i] != b.Out[i] {
			t.Fatalf("output %d differs between runs", i)
		}
	}
}
