package driver

import (
	"testing"

	"github.com/sram-align/xdropipu/internal/ipukernel"
)

// TestKernelTierComposition is the tier half of the composition
// contract: with dedup, a result cache and traceback all live, a cold
// TierAuto run must return per-comparison alignments identical to a cold
// TierWide run (scores, coordinates, traces and CIGARs — AlignOut is
// ==-comparable) while executing the same work, and its narrower
// modeled DP buffers must show up as a smaller SRAM peak.
func TestKernelTierComposition(t *testing.T) {
	d := duplicated(goldenDatasets(t)["uniform"], 2)
	base := goldenConfigs()["uniform-nopart"].cfg
	base.Traceback = true

	run := func(tier ipukernel.Tier) *Report {
		cfg := base
		cfg.Cache = newMapCache() // cold per tier, so both tiers execute
		cfg.Kernel.KernelTier = tier
		rep, err := Run(d, cfg)
		if err != nil {
			t.Fatalf("tier %v: %v", tier, err)
		}
		return rep
	}

	wide := run(ipukernel.TierWide)
	auto := run(ipukernel.TierAuto)
	sameResults(t, "auto", auto.Results, wide.Results)
	if auto.UniqueExtensions != wide.UniqueExtensions || auto.CacheMisses != wide.CacheMisses ||
		auto.TracedExtensions != wide.TracedExtensions {
		t.Errorf("tiers executed different work: auto unique/misses/traced %d/%d/%d, wide %d/%d/%d",
			auto.UniqueExtensions, auto.CacheMisses, auto.TracedExtensions,
			wide.UniqueExtensions, wide.CacheMisses, wide.TracedExtensions)
	}
	if auto.MaxSRAM >= wide.MaxSRAM {
		t.Errorf("auto tier modeled %d B peak SRAM, wide %d B: the int16 charge did not apply",
			auto.MaxSRAM, wide.MaxSRAM)
	}
}

// TestKernelFingerprintIgnoresTier: the tier only changes modeled SRAM,
// never an AlignOut, so it stays out of KernelFingerprint — a TierAuto
// job over a cache filled by a TierWide job is served entirely from the
// cache, with identical Results.
func TestKernelFingerprintIgnoresTier(t *testing.T) {
	d := goldenDatasets(t)["uniform"]
	base := goldenConfigs()["uniform-nopart"].cfg
	base.Traceback = true
	base.Cache = newMapCache()

	wide, err := Run(d, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Kernel.KernelTier = ipukernel.TierAuto
	if a, b := KernelFingerprint(base.Normalized().Kernel, base.Normalized().Model),
		KernelFingerprint(cfg.Normalized().Kernel, cfg.Normalized().Model); a != b {
		t.Fatalf("tier changed the kernel fingerprint: wide %x, auto %x", a, b)
	}
	auto, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "auto-from-wide-cache", auto.Results, wide.Results)
	if auto.CacheMisses != 0 || auto.CacheHits != auto.UniqueExtensions || auto.CacheHits == 0 {
		t.Errorf("auto job over a wide-filled cache: hits %d misses %d (unique %d), want all hits",
			auto.CacheHits, auto.CacheMisses, auto.UniqueExtensions)
	}
}
