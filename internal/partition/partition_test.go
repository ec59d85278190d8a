package partition

import (
	"math/rand"
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipu"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

func testKernelCfg() ipukernel.Config {
	return ipukernel.Config{
		Params: core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, DeltaB: 256},
	}
}

func readsData(t *testing.T, seed int64) *workload.Dataset {
	t.Helper()
	d := synth.Reads(synth.ReadsSpec{
		Name: "p", GenomeLen: 40000, Coverage: 8, MeanReadLen: 2000, MinReadLen: 700,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 500, Seed: seed,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// coverage checks every comparison appears in exactly one item.
func coverage(t *testing.T, d *workload.Dataset, items []Item) {
	t.Helper()
	seen := make([]int, len(d.Comparisons))
	for _, it := range items {
		for _, ci := range it.Cmps {
			seen[ci]++
		}
		// Item sequence lists must cover their comparisons and stay
		// unique.
		have := map[int]bool{}
		for _, s := range it.Seqs {
			if have[s] {
				t.Fatalf("duplicate sequence %d in item", s)
			}
			have[s] = true
		}
		for _, ci := range it.Cmps {
			c := d.Comparisons[ci]
			if !have[c.H] || !have[c.V] {
				t.Fatalf("item missing sequences of comparison %d", ci)
			}
		}
	}
	for ci, n := range seen {
		if n != 1 {
			t.Fatalf("comparison %d assigned %d times", ci, n)
		}
	}
}

func TestBuildItemsNoReuse(t *testing.T) {
	d := readsData(t, 1)
	items := BuildItems(d, Options{SeqBudget: 1 << 20, Reuse: false})
	coverage(t, d, items)
	if len(items) != len(d.Comparisons) {
		t.Fatalf("no-reuse should yield one item per comparison: %d != %d", len(items), len(d.Comparisons))
	}
	if rf := ReuseFactor(d, items); rf != 1 {
		t.Errorf("no-reuse ReuseFactor = %f, want 1", rf)
	}
}

func TestBuildItemsWithReuse(t *testing.T) {
	d := readsData(t, 2)
	items := BuildItems(d, Options{SeqBudget: 200_000, Reuse: true})
	coverage(t, d, items)
	if len(items) >= len(d.Comparisons) {
		t.Errorf("reuse produced %d items for %d comparisons — no grouping", len(items), len(d.Comparisons))
	}
	rf := ReuseFactor(d, items)
	if rf <= 1.2 {
		t.Errorf("reuse factor %.2f too low for an overlap graph", rf)
	}
	// Budget must hold for every item (single-comparison spillovers may
	// exceed it only when one comparison alone is larger).
	for _, it := range items {
		if it.Bytes > 200_000 && len(it.Cmps) > 1 {
			t.Errorf("multi-comparison item exceeds budget: %d B", it.Bytes)
		}
	}
}

func TestBuildItemsRespectsTinyBudget(t *testing.T) {
	d := readsData(t, 3)
	items := BuildItems(d, Options{SeqBudget: 1, Reuse: true}) // nothing fits: every comparison alone
	coverage(t, d, items)
	for _, it := range items {
		if len(it.Cmps) != 1 {
			t.Fatalf("tiny budget produced a grouped item with %d comparisons", len(it.Cmps))
		}
	}
}

func TestCostEstimate(t *testing.T) {
	d := &workload.Dataset{
		Sequences: [][]byte{make([]byte, 100), make([]byte, 80)},
		Comparisons: []workload.Comparison{
			{H: 0, V: 1, SeedH: 40, SeedV: 30, SeedLen: 10},
		},
	}
	// left: 40×30, right: 50×40.
	want := float64(40*30 + 50*40)
	if got := CostEstimate(d, d.Comparisons[0]); got != want {
		t.Errorf("CostEstimate = %f, want %f", got, want)
	}
}

func TestMakeBatchesCoverageAndMemory(t *testing.T) {
	d := readsData(t, 4)
	cfg := testKernelCfg()
	items := BuildItems(d, Options{SeqBudget: 150_000, Reuse: true})
	batches, err := MakeBatches(d, items, 16, cfg, platform.GC200)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, len(d.Comparisons))
	for _, b := range batches {
		if len(b.Tiles) > 16 {
			t.Fatalf("batch uses %d tiles, limit 16", len(b.Tiles))
		}
		for ti := range b.Tiles {
			tw := &b.Tiles[ti]
			if mem := cfg.TileMemoryBytes(tw, platform.GC200); mem > platform.GC200.DataSRAM() {
				t.Fatalf("tile memory %d exceeds SRAM budget", mem)
			}
			for _, j := range tw.Jobs {
				seen[j.GlobalID]++
				// Local references must resolve.
				if j.HLocal >= len(tw.Seqs) || j.VLocal >= len(tw.Seqs) {
					t.Fatal("dangling local sequence reference")
				}
			}
		}
	}
	for ci, n := range seen {
		if n != 1 {
			t.Fatalf("comparison %d scheduled %d times", ci, n)
		}
	}
}

func TestMakeBatchesFewerWithReuse(t *testing.T) {
	// The §6.2 measurement: partitioning reduces batch count (−52% for
	// E. coli 100x, −44% for C. elegans). Two tiles force multi-batch
	// schedules at this workload size.
	d := synth.Reads(synth.ReadsSpec{
		Name: "dense", GenomeLen: 80000, Coverage: 12, MeanReadLen: 2000, MinReadLen: 700,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 500, Seed: 5,
	})
	cfg := testKernelCfg()
	tiles := 2
	single, err := MakeBatches(d, BuildItems(d, Options{SeqBudget: 150_000, Reuse: false}), tiles, cfg, platform.GC200)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := MakeBatches(d, BuildItems(d, Options{SeqBudget: 150_000, Reuse: true}), tiles, cfg, platform.GC200)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) < 2 {
		t.Fatalf("workload too small to exercise batching: %d batches", len(single))
	}
	if len(multi) >= len(single) {
		t.Errorf("partitioning did not reduce batches: %d -> %d", len(single), len(multi))
	}
}

func TestMakeBatchesLoadBalance(t *testing.T) {
	d := readsData(t, 6)
	cfg := testKernelCfg()
	items := BuildItems(d, Options{SeqBudget: 150_000, Reuse: true})
	batches, err := MakeBatches(d, items, 4, cfg, platform.GC200)
	if err != nil {
		t.Fatal(err)
	}
	// In the first (fullest) batch, tile cost estimates should be within
	// a reasonable factor of each other (LPT guarantee-ish).
	if len(batches) == 0 {
		t.Fatal("no batches")
	}
	b := batches[0]
	if len(b.Tiles) < 2 {
		t.Skip("not enough tiles to assess balance")
	}
	var lo, hi float64
	for ti := range b.Tiles {
		var load float64
		for _, j := range b.Tiles[ti].Jobs {
			load += CostEstimate(d, d.Comparisons[j.GlobalID])
		}
		if ti == 0 || load < lo {
			lo = load
		}
		if load > hi {
			hi = load
		}
	}
	if lo <= 0 || hi/lo > 20 {
		t.Errorf("first batch badly balanced: min %.0f max %.0f", lo, hi)
	}
}

func TestMakeBatchesErrors(t *testing.T) {
	d := readsData(t, 7)
	items := BuildItems(d, Options{SeqBudget: 150_000, Reuse: true})
	if _, err := MakeBatches(d, items, 0, testKernelCfg(), platform.GC200); err == nil {
		t.Error("tiles=0 accepted")
	}
	// An item that cannot fit even an empty tile must be rejected.
	big := &workload.Dataset{
		Sequences: [][]byte{make([]byte, 400*1024), make([]byte, 400*1024)},
		Comparisons: []workload.Comparison{
			{H: 0, V: 1, SeedH: 1000, SeedV: 1000, SeedLen: 17},
		},
	}
	bigItems := BuildItems(big, Options{SeqBudget: 1 << 30, Reuse: false})
	if _, err := MakeBatches(big, bigItems, 4, testKernelCfg(), platform.GC200); err == nil {
		t.Error("oversized item accepted")
	}
}

func TestStandardAlgoNeedsMoreBatches(t *testing.T) {
	// The abstract's claim that memory restriction improves scaling:
	// Standard3's 3δ·threads buffers crowd sequences out of SRAM, so the
	// same workload needs more batches than Restricted2 with a small δb.
	d := synth.Reads(synth.ReadsSpec{
		Name: "long", GenomeLen: 150000, Coverage: 8, MeanReadLen: 4500, MinReadLen: 2500,
		MaxReadLen: 6000,
		Errors:     synth.HiFiDNA(), SeedLen: 17, MinOverlap: 2000, Seed: 8, MaxComparisons: 160,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	tiles := 1
	restricted := testKernelCfg()
	rBudget, err := DeriveSeqBudget(d, restricted, platform.GC200)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := MakeBatches(d, BuildItems(d, Options{SeqBudget: rBudget, Reuse: true}), tiles, restricted, platform.GC200)
	if err != nil {
		t.Fatal(err)
	}
	standard := restricted
	standard.Params.Algo = core.AlgoStandard3
	sBudget, err := DeriveSeqBudget(d, standard, platform.GC200)
	if err != nil {
		t.Fatal(err)
	}
	if sBudget >= rBudget {
		t.Fatalf("standard budget %d should be below restricted %d", sBudget, rBudget)
	}
	sb, err := MakeBatches(d, BuildItems(d, Options{SeqBudget: sBudget, Reuse: true}), tiles, standard, platform.GC200)
	if err != nil {
		t.Fatal(err)
	}
	if len(sb) <= len(rb) {
		t.Errorf("standard3 (%d batches) should need more batches than restricted2 (%d)", len(sb), len(rb))
	}
}

// TestBuildItemsCoverageFuzz drives the greedy walk across many random
// graph shapes and budgets; every comparison must land in exactly one
// item (regression: edges skipped at partition boundaries used to be
// lost when both endpoints had already left the frontier).
func TestBuildItemsCoverageFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		nSeqs := 2 + rng.Intn(40)
		d := &workload.Dataset{}
		for i := 0; i < nSeqs; i++ {
			d.Sequences = append(d.Sequences, make([]byte, 50+rng.Intn(500)))
		}
		nCmps := rng.Intn(120)
		for i := 0; i < nCmps; i++ {
			h, v := rng.Intn(nSeqs), rng.Intn(nSeqs)
			if h == v {
				continue
			}
			d.Comparisons = append(d.Comparisons, workload.Comparison{
				H: h, V: v, SeedH: 10, SeedV: 10, SeedLen: 17,
			})
		}
		budget := 100 + rng.Intn(3000)
		maxCmps := []int{0, 1, 3, 10}[trial%4]
		items := BuildItems(d, Options{SeqBudget: budget, Reuse: true, MaxCmps: maxCmps})
		coverage(t, d, items)
		if maxCmps > 0 {
			for _, it := range items {
				if len(it.Cmps) > maxCmps {
					t.Fatalf("trial %d: item holds %d cmps, cap %d", trial, len(it.Cmps), maxCmps)
				}
			}
		}
	}
}

// TestBuildItemsFrontierPreservedAcrossFlush pins the boundary-restart
// fix: closing a full partition used to reset the walk queue to just the
// current vertex (`queue = append(queue[:0], u)`), discarding frontier
// vertices discovered earlier. Their unassigned edges could only
// resurface when those vertices' own seed turns came — or, if those had
// already passed, in the reuse-blind mop-up sweep — fragmenting
// partitions on dense graphs. This workload (found by searching random
// graphs against the old walk) yielded ReuseFactor 2.81 before the fix
// and 3.48 with the frontier preserved; the threshold sits between the
// two so a regression to the old restart fails loudly.
func TestBuildItemsFrontierPreservedAcrossFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(796))
	n := 12 + rng.Intn(30)
	d := &workload.Dataset{}
	for i := 0; i < n; i++ {
		d.Sequences = append(d.Sequences, make([]byte, 200+rng.Intn(600)))
	}
	m := 30 + rng.Intn(120)
	for i := 0; i < m; i++ {
		h, v := rng.Intn(n), rng.Intn(n)
		if h == v {
			continue
		}
		d.Comparisons = append(d.Comparisons, workload.Comparison{
			H: h, V: v, SeedH: 10, SeedV: 10, SeedLen: 17,
		})
	}
	budget := 1000 + rng.Intn(2500)
	items := BuildItems(d, Options{SeqBudget: budget, Reuse: true})
	coverage(t, d, items)
	if rf := ReuseFactor(d, items); rf < 3.0 {
		t.Errorf("ReuseFactor = %.3f, want ≥ 3.0 (old frontier-discarding walk scored 2.81)", rf)
	}
	for _, it := range items {
		if it.Bytes > budget && len(it.Cmps) > 1 {
			t.Errorf("multi-comparison item exceeds budget: %d B", it.Bytes)
		}
	}
}

func TestDeriveSeqBudget(t *testing.T) {
	// 25 kb reads: the unrestricted variants cannot fit tile SRAM at all
	// (the paper's headline constraint), the restricted one can.
	d := &workload.Dataset{
		Sequences: [][]byte{make([]byte, 25000), make([]byte, 25000)},
		Comparisons: []workload.Comparison{
			{H: 0, V: 1, SeedH: 12500, SeedV: 12500, SeedLen: 17},
		},
	}
	cfg := testKernelCfg() // δb = 256
	budget, err := DeriveSeqBudget(d, cfg, platform.GC200)
	if err != nil || budget < 50000 {
		t.Fatalf("restricted budget = %d, err = %v", budget, err)
	}
	cfg.Params.Algo = core.AlgoStandard3
	if _, err := DeriveSeqBudget(d, cfg, platform.GC200); err == nil {
		t.Fatal("standard3 on 25kb reads should not fit tile SRAM")
	}
	cfg.Params.Algo = core.AlgoRestricted2
	cfg.Params.DeltaB = 0 // unbounded restricted: 2δ also too large for 6 threads
	if _, err := DeriveSeqBudget(d, cfg, platform.GC200); err == nil {
		t.Fatal("unbounded 2δ buffers on 25kb reads should not fit six threads")
	}
}

// TestTracebackBudgetAdmitsWithinSRAM pins ROADMAP item (a): with
// traceback enabled, the derived sequence budget must only admit tiles
// whose full SRAM model — work buffers plus the shared trace arena —
// fits the device, and the modeled arena allowance must dominate the
// peak trace footprint the kernel actually records while replaying
// extensions. Exercised under both score-width tiers so TierAuto's
// narrower working-set charge never under-charges the trace arena.
func TestTracebackBudgetAdmitsWithinSRAM(t *testing.T) {
	for _, tier := range []ipukernel.Tier{ipukernel.TierWide, ipukernel.TierAuto} {
		d := readsData(t, 11)
		cfg := testKernelCfg()
		cfg.Traceback = true
		cfg.KernelTier = tier
		budget, err := DeriveSeqBudget(d, cfg, platform.GC200)
		if err != nil {
			t.Fatalf("tier %v: %v", tier, err)
		}
		// MaxCmps mirrors the driver's spread cap: it also keeps the
		// per-item tuple/result overhead inside the budget allowance.
		items := BuildItems(d, Options{SeqBudget: budget, Reuse: true, MaxCmps: 64})
		batches, err := MakeBatches(d, items, 8, cfg, platform.GC200)
		if err != nil {
			t.Fatalf("tier %v: %v", tier, err)
		}
		for _, b := range batches {
			allowance := 0
			for ti := range b.Tiles {
				tw := &b.Tiles[ti]
				if mem := cfg.TileMemoryBytes(tw, platform.GC200); mem > platform.GC200.DataSRAM() {
					t.Fatalf("tier %v: admitted tile needs %d B of the %d B SRAM",
						tier, mem, platform.GC200.DataSRAM())
				}
				for _, j := range tw.Jobs {
					hn, vn := int(tw.Seqs[j.HLocal].Len), int(tw.Seqs[j.VLocal].Len)
					for _, tb := range []int{
						cfg.ExtensionTraceBytes(j.SeedH, j.SeedV),
						cfg.ExtensionTraceBytes(hn-j.SeedH-j.SeedLen, vn-j.SeedV-j.SeedLen),
					} {
						if tb > allowance {
							allowance = tb
						}
					}
				}
			}
			arena, _ := d.Spine()
			res, err := ipukernel.Run(ipu.New(ipu.Config{Model: platform.GC200}), b.Bound(arena.SlabViews()), cfg)
			if err != nil {
				t.Fatalf("tier %v: %v", tier, err)
			}
			if res.PeakTraceBytes == 0 {
				t.Fatalf("tier %v: traceback run recorded no trace bytes", tier)
			}
			if res.PeakTraceBytes > allowance {
				t.Fatalf("tier %v: peak trace %d B exceeds modeled arena allowance %d B",
					tier, res.PeakTraceBytes, allowance)
			}
		}
	}
}
