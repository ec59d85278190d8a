package driver

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

// shortReadsData generates a short-read overlap set whose extensions
// are small enough that forcing TraceModeFused keeps the per-thread
// direction arenas within tile SRAM (the partitioner rejects forced
// fusion on long-read extensions — by design).
func shortReadsData(t *testing.T, seed int64, maxCmp int) *workload.Dataset {
	t.Helper()
	d := synth.Reads(synth.ReadsSpec{
		Name: "drv-short", GenomeLen: 20000, Coverage: 8, MeanReadLen: 350,
		MinReadLen: 150, MaxReadLen: 450,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 120, Seed: seed, MaxComparisons: maxCmp,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// traceScores runs the score-only configuration and returns the sorted
// comparison scores, for deriving percentile gate cutoffs.
func traceScores(t *testing.T, d *workload.Dataset, cfg Config) []int {
	t.Helper()
	rep, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]int, len(rep.Results))
	for i, r := range rep.Results {
		scores[i] = r.Score
	}
	sort.Ints(scores)
	return scores
}

// TestTraceModeThreeWayOracle is the mode half of the differential
// oracle: replay, fused and auto traceback runs must be bit-identical in
// every result field — scores, coordinates, trace statistics, clamp
// flags and CIGARs — across kernel tiers, and all must account every
// extension as traced with nothing skipped.
func TestTraceModeThreeWayOracle(t *testing.T) {
	d := shortReadsData(t, 21, 40)
	for _, tier := range []ipukernel.Tier{ipukernel.TierWide, ipukernel.TierAuto} {
		base := testCfg(2, true)
		base.Traceback = true
		base.Kernel.KernelTier = tier

		reps := make(map[core.TraceMode]*Report, 3)
		for _, mode := range []core.TraceMode{core.TraceModeReplay, core.TraceModeFused, core.TraceModeAuto} {
			cfg := base
			cfg.TraceMode = mode
			rep, err := Run(d, cfg)
			if err != nil {
				t.Fatalf("tier %v mode %v: %v", tier, mode, err)
			}
			if rep.TracedExtensions != 2*len(d.Comparisons) || rep.TraceSkippedExtensions != 0 {
				t.Fatalf("tier %v mode %v: counters traced=%d skipped=%d, want %d/0",
					tier, mode, rep.TracedExtensions, rep.TraceSkippedExtensions, 2*len(d.Comparisons))
			}
			reps[mode] = rep
		}
		replay := reps[core.TraceModeReplay]
		for _, mode := range []core.TraceMode{core.TraceModeFused, core.TraceModeAuto} {
			got := reps[mode]
			for i := range replay.Results {
				if got.Results[i] != replay.Results[i] {
					t.Fatalf("tier %v: comparison %d differs between replay and %v:\nreplay: %+v\n  %v: %+v",
						tier, i, mode, replay.Results[i], mode, got.Results[i])
				}
			}
		}
	}
}

// TestTraceMinScoreGate pins the score-gate contract: comparisons at or
// above the cutoff are bit-identical to an ungated traceback run,
// comparisons below it are bit-identical to a score-only run (no CIGAR,
// no trace bytes), the traced/skipped counters are disjoint and sum to
// every extension, and the gate behaves identically under fused mode
// (the gate takes precedence over fusion).
func TestTraceMinScoreGate(t *testing.T) {
	d := readsData(t, 22, 40)
	scoreOnly := testCfg(2, true)
	off, err := Run(d, scoreOnly)
	if err != nil {
		t.Fatal(err)
	}
	if off.TracedExtensions != 0 || off.TraceSkippedExtensions != 0 {
		t.Fatalf("score-only run reported trace counters: %d/%d",
			off.TracedExtensions, off.TraceSkippedExtensions)
	}

	on := scoreOnly
	on.Traceback = true
	full, err := Run(d, on)
	if err != nil {
		t.Fatal(err)
	}

	scores := traceScores(t, d, scoreOnly)
	cut := scores[len(scores)/2]
	if cut <= 0 {
		t.Fatalf("p50 score %d not positive; dataset unusable for gate test", cut)
	}

	for _, mode := range []core.TraceMode{core.TraceModeReplay, core.TraceModeFused} {
		gated := on
		gated.TraceMinScore = cut
		gated.TraceMode = mode
		gr, err := Run(d, gated)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		traced, skipped := 0, 0
		for i, r := range gr.Results {
			if full.Results[i].Score >= cut {
				traced++
				if r != full.Results[i] {
					t.Fatalf("mode %v: comparison %d above cutoff differs from ungated run:\ngated:   %+v\nungated: %+v",
						mode, i, r, full.Results[i])
				}
			} else {
				skipped++
				if r != off.Results[i] {
					t.Fatalf("mode %v: comparison %d below cutoff differs from score-only run:\ngated:      %+v\nscore-only: %+v",
						mode, i, r, off.Results[i])
				}
				if r.Cigar != "" || r.TraceBytes != 0 {
					t.Fatalf("mode %v: skipped comparison %d carries trace payload: %+v", mode, i, r)
				}
			}
		}
		if skipped == 0 || traced == 0 {
			t.Fatalf("p50 cutoff did not split the dataset: %d traced, %d skipped comparisons", traced, skipped)
		}
		if gr.TracedExtensions != 2*traced || gr.TraceSkippedExtensions != 2*skipped {
			t.Fatalf("mode %v: counters traced=%d skipped=%d, want %d/%d",
				mode, gr.TracedExtensions, gr.TraceSkippedExtensions, 2*traced, 2*skipped)
		}
		if gr.TracedExtensions+gr.TraceSkippedExtensions != 2*len(d.Comparisons) {
			t.Fatalf("mode %v: counters not a partition of all extensions", mode)
		}
	}
}

// TestTraceGateCacheComposition: gated and ungated runs must never share
// cache entries (their kernel fingerprints differ), replay and fused
// fingerprints likewise, and a rerun under the same configuration must
// hit its own warm entries and reproduce its results exactly.
func TestTraceGateCacheComposition(t *testing.T) {
	d := shortReadsData(t, 23, 30)
	scores := traceScores(t, d, testCfg(1, true))
	cut := scores[len(scores)/2]

	cache := newMapCache()
	base := testCfg(1, true)
	base.Traceback = true
	base.Cache = cache

	u1, err := Run(d, base)
	if err != nil {
		t.Fatal(err)
	}
	if u1.CacheHits != 0 {
		t.Fatalf("cold ungated run hit the cache %d times", u1.CacheHits)
	}
	u2, err := Run(d, base)
	if err != nil {
		t.Fatal(err)
	}
	if u2.CacheHits == 0 {
		t.Fatal("warm ungated rerun had no cache hits")
	}

	gated := base
	gated.TraceMinScore = cut
	g1, err := Run(d, gated)
	if err != nil {
		t.Fatal(err)
	}
	if g1.CacheHits != 0 {
		t.Fatalf("gated run shared %d entries with the ungated fill", g1.CacheHits)
	}
	g2, err := Run(d, gated)
	if err != nil {
		t.Fatal(err)
	}
	if g2.CacheHits == 0 {
		t.Fatal("warm gated rerun had no cache hits")
	}
	for i := range g1.Results {
		if g2.Results[i] != g1.Results[i] {
			t.Fatalf("comparison %d differs between cold and warm gated runs", i)
		}
	}

	fused := base
	fused.TraceMode = core.TraceModeFused
	f1, err := Run(d, fused)
	if err != nil {
		t.Fatal(err)
	}
	if f1.CacheHits != 0 {
		t.Fatalf("fused run shared %d entries with the replay fill", f1.CacheHits)
	}

	// Score-only runs ignore both knobs: a gated fingerprint with
	// traceback off must equal the plain score-only fingerprint, so
	// score-only workloads keep sharing entries.
	plain := testCfg(1, true)
	gatedOff := plain
	gatedOff.TraceMinScore = cut
	gatedOff.TraceMode = core.TraceModeFused
	a := KernelFingerprint(plain.Normalized().Kernel, plain.Model)
	b := KernelFingerprint(gatedOff.Normalized().Kernel, gatedOff.Model)
	if a != b {
		t.Fatal("trace knobs changed the score-only kernel fingerprint")
	}
}

// traceCapDataset hand-builds a dataset of small comparisons plus one
// oversized one whose traceback recording blows a tiny injected cell
// cap while the small ones stay under it.
func traceCapDataset(big int) (*workload.Dataset, int) {
	rng := rand.New(rand.NewSource(99))
	const alpha = "ACGT"
	gen := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = alpha[rng.Intn(4)]
		}
		return s
	}
	mut := func(h []byte, rate float64) []byte {
		v := append([]byte(nil), h...)
		for i := range v {
			if rng.Float64() < rate {
				v[i] = alpha[rng.Intn(4)]
			}
		}
		return v
	}
	d := &workload.Dataset{Name: "trace-cap"}
	addPair := func(n int) {
		h := gen(n)
		v := mut(h, 0.03)
		k := 17
		s := n/2 - k/2
		copy(v[s:s+k], h[s:s+k])
		i := len(d.Sequences)
		d.Sequences = append(d.Sequences, h, v)
		d.Comparisons = append(d.Comparisons, workload.Comparison{
			H: i, V: i + 1, SeedH: s, SeedV: s, SeedLen: k,
		})
	}
	for i := 0; i < 4; i++ {
		addPair(80)
	}
	bigIdx := len(d.Comparisons)
	addPair(big)
	addPair(80)
	return d, bigIdx
}

// TestTraceTooLargeDegradesSingleComparison is the propagation-bugfix
// regression: a traceback recording that overflows the cell cap must
// surface as that one comparison failing (AlignOut.Failed), not poison
// sibling comparisons on the tile or fail the batch — and the degraded
// placeholder must never enter the result cache.
func TestTraceTooLargeDegradesSingleComparison(t *testing.T) {
	d, bigIdx := traceCapDataset(2000)
	for _, mode := range []core.TraceMode{core.TraceModeReplay, core.TraceModeFused} {
		t.Run(mode.String(), func(t *testing.T) {
			cache := newMapCache()
			// Partitioning off: the SRAM certifier would (correctly)
			// refuse to force-fuse the oversized extension; the cap
			// propagation path is what this test pins.
			cfg := testCfg(1, false)
			cfg.Traceback = true
			cfg.TraceMode = mode
			cfg.Cache = cache
			// δb=64 keeps the forced-fused per-thread arena bound for the
			// 2 kb pair within the SRAM-derived sequence budget.
			cfg.Kernel.Params.DeltaB = 64

			restore := core.SetTraceCellCapForTest(6_000)
			rep, err := Run(d, cfg)
			if err != nil {
				restore()
				t.Fatalf("capped run failed as a batch: %v", err)
			}
			if rep.PartialFailures != 1 {
				restore()
				t.Fatalf("want exactly 1 degraded comparison, got %d", rep.PartialFailures)
			}
			for i, r := range rep.Results {
				if i == bigIdx {
					if !r.Failed || r.Score != 0 || r.Cigar != "" {
						restore()
						t.Fatalf("oversized comparison not a clean Failed placeholder: %+v", r)
					}
					continue
				}
				if r.Failed {
					restore()
					t.Fatalf("sibling comparison %d poisoned by the oversized trace: %+v", i, r)
				}
				if r.Cigar == "" {
					restore()
					t.Fatalf("sibling comparison %d lost its CIGAR", i)
				}
				if err := (alignment.Alignment{
					Score: r.Score, BegH: r.BegH, BegV: r.BegV, EndH: r.EndH, EndV: r.EndV, Cigar: r.Cigar,
				}).Validate(); err != nil {
					restore()
					t.Fatalf("sibling comparison %d invalid: %v", i, err)
				}
			}
			restore()

			// With the cap restored and the same warm cache, the big
			// comparison must come back real — proving its Failed
			// placeholder was never cached.
			rep2, err := Run(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep2.PartialFailures != 0 {
				t.Fatalf("uncapped rerun still degraded: %d", rep2.PartialFailures)
			}
			big := rep2.Results[bigIdx]
			if big.Failed || big.Cigar == "" || big.Score <= 0 {
				t.Fatalf("uncapped rerun served a stale degraded result: %+v", big)
			}
			if rep2.CacheHits == 0 {
				t.Fatal("uncapped rerun had no cache hits for the small comparisons")
			}
		})
	}
}
