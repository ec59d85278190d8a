// Multi-slab spine acceptance: the slab layout of the arena is a host
// memory-management detail — repacking the same pool into many small
// slabs (and even spilling them to disk between batches) must leave
// every report bit-identical to the single-slab run.

package driver

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sram-align/xdropipu/internal/seqio"
	"github.com/sram-align/xdropipu/internal/workload"
)

// repackSpine rebuilds d's pool into a fresh spine capped at maxSlab
// bytes per slab — same sequences, same indices, same plan — so runs on
// the repacked dataset are byte-comparable to runs on d. The dataset is
// spine-only (no materialised Sequences view), so slabs stay spillable.
func repackSpine(t testing.TB, d *workload.Dataset, maxSlab int) (*workload.Dataset, *workload.Arena) {
	t.Helper()
	a := workload.NewArena(0, d.NumSeqs())
	a.SetMaxSlabBytes(maxSlab)
	for _, s := range d.Sequences {
		a.Append(s)
	}
	rd := a.NewStreamingDataset(d.Name, workload.PlanOf(d.Comparisons), d.Protein)
	if err := rd.Validate(); err != nil {
		t.Fatal(err)
	}
	return rd, a
}

// TestArenaSpineMultiSlabBitIdentical: every golden workload/config pair,
// repacked across several slab caps, must reproduce the single-slab
// report fingerprint exactly — results, transfer bytes, modeled seconds.
func TestArenaSpineMultiSlabBitIdentical(t *testing.T) {
	ds := goldenDatasets(t)
	for name, tc := range goldenConfigs() {
		want, err := Run(ds[tc.dataset], tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantFP := reportFingerprint(want)
		// Two layouts per dataset: slabs barely big enough for the longest
		// sequence (maximum fragmentation), and a ~3-slab cut of the pool.
		// Both are sized from the data so every fixture genuinely rolls.
		longest := 0
		for _, s := range ds[tc.dataset].Sequences {
			longest = max(longest, len(s))
		}
		caps := []int{longest, max(longest, int(ds[tc.dataset].TotalSeqBytes()/3)+1)}
		for _, maxSlab := range caps {
			rd, arena := repackSpine(t, ds[tc.dataset], maxSlab)
			if arena.NumSlabs() < 2 {
				t.Fatalf("%s: %d-byte cap produced %d slabs — fixture not multi-slab", name, maxSlab, arena.NumSlabs())
			}
			rep, err := Run(rd, tc.cfg)
			if err != nil {
				t.Fatalf("%s cap %d: %v", name, maxSlab, err)
			}
			if got := reportFingerprint(rep); got != wantFP {
				t.Errorf("%s: %d-slab report %s differs from single-slab %s",
					name, arena.NumSlabs(), got, wantFP)
			}
		}
	}
}

// TestArenaSpineDedupCacheTraceback: the full feature stack — dedup,
// result cache, traceback — over a duplicate-heavy multi-slab spine must
// match the single-slab run alignment for alignment, CIGARs included,
// and dedup/cache accounting must not depend on the slab layout.
func TestArenaSpineDedupCacheTraceback(t *testing.T) {
	ds := goldenDatasets(t)
	base := duplicated(ds["reads"], 3)
	cfg := goldenConfigs()["reads-partition"].cfg
	cfg.DedupExtensions = true
	cfg.Traceback = true

	want, err := Run(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rd, arena := repackSpine(t, base, 1<<13)
	if arena.NumSlabs() < 2 {
		t.Fatalf("fixture not multi-slab: %d slabs", arena.NumSlabs())
	}
	got, err := Run(rd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "multi-slab dedup+traceback", got.Results, want.Results)
	if got.UniqueExtensions != want.UniqueExtensions || got.DedupedComparisons != want.DedupedComparisons {
		t.Errorf("dedup accounting depends on slab layout: %d/%d vs %d/%d",
			got.UniqueExtensions, got.DedupedComparisons, want.UniqueExtensions, want.DedupedComparisons)
	}

	// Result cache: a second run over the same content — packed into yet
	// another slab layout — must be served entirely from cache, because
	// ExtensionKeys are content digests and never see slab indices.
	cache := newMapCache()
	cfg.Cache = cache
	if _, err := Run(rd, cfg); err != nil {
		t.Fatal(err)
	}
	rd2, _ := repackSpine(t, base, 1<<14)
	rep2, err := Run(rd2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CacheMisses != 0 || rep2.CacheHits != rep2.UniqueExtensions {
		t.Errorf("cross-layout cache run: %d hits / %d misses for %d unique extensions",
			rep2.CacheHits, rep2.CacheMisses, rep2.UniqueExtensions)
	}
	sameResults(t, "cache-served across layouts", rep2.Results, want.Results)
}

// TestArenaSpineSpillExecution: with every slab spilled to disk before
// execution, the driver pins each batch's slab set in, runs it, and
// releases — and the report stays bit-identical to the resident run.
func TestArenaSpineSpillExecution(t *testing.T) {
	ds := goldenDatasets(t)
	tc := goldenConfigs()["reads-partition"]
	want, err := Run(ds[tc.dataset], tc.cfg)
	if err != nil {
		t.Fatal(err)
	}

	rd, arena := repackSpine(t, ds[tc.dataset], 1<<13)
	arena.EnableSpill(t.TempDir())
	arena.Seal()
	if _, err := arena.Spill(); err != nil {
		t.Fatal(err)
	}
	if st := arena.Residency(); st.Resident != 0 {
		t.Fatalf("fixture not fully spilled: %+v", st)
	}

	rep, err := Run(rd, tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportFingerprint(rep); got != reportFingerprint(want) {
		t.Errorf("spilled-spine report %s differs from resident %s", got, reportFingerprint(want))
	}
	st := arena.Residency()
	if st.Faults == 0 {
		t.Error("execution over a spilled spine recorded no faults")
	}
	// Every pin was released: the whole spine spills again.
	if _, err := arena.Spill(); err != nil {
		t.Fatal(err)
	}
	if st := arena.Residency(); st.Resident != 0 {
		t.Errorf("slabs still pinned after the run: %+v", st)
	}
	if err := arena.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestArenaSpineCorruptSpillFailsJob: a spill file flipped on disk at
// the same length must fail the job at its batch pin — never run the
// kernels on the corrupted bytes and report them as a result.
func TestArenaSpineCorruptSpillFailsJob(t *testing.T) {
	ds := goldenDatasets(t)
	tc := goldenConfigs()["reads-partition"]
	rd, arena := repackSpine(t, ds[tc.dataset], 1<<13)
	dir := t.TempDir()
	arena.EnableSpill(dir)
	arena.Seal()
	if _, err := arena.Spill(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no spill files written (%v)", err)
	}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x01
		if err := os.WriteFile(path, b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err := Run(rd, tc.cfg); err == nil {
		t.Fatalf("run over corrupted spill files succeeded with %d results", len(rep.Results))
	}
}

// TestArenaSpineSmoke is the fast multi-slab end-to-end check CI's short
// mode runs: stream FASTA into a tiny-capped spine, partition, execute
// with dedup and traceback, and compare against the identical content in
// one slab. Kept small enough for -short; the heavier sweeps above are
// the full-mode versions.
func TestArenaSpineSmoke(t *testing.T) {
	fasta := ">a\nACGTACGTACGTACGTACGTACGTACGTACGT\n" +
		">b\nACGAACGTACGTTCGTACGTACGAACGTACGT\n" +
		">c\nTTGCATGCATGCATGCATGCAAGCATGCATGC\n" +
		">d\nTTGCATGCATGCATTCATGCAAGCATGCATGC\n" +
		">a2\nACGTACGTACGTACGTACGTACGTACGTACGT\n"
	build := func(maxSlab int) (*workload.Dataset, *workload.Arena) {
		a := workload.NewArena(0, 5)
		a.SetMaxSlabBytes(maxSlab)
		if _, err := a.AppendFasta(strings.NewReader(fasta), seqio.DNAAlphabet); err != nil {
			t.Fatal(err)
		}
		plan := workload.PlanOf([]workload.Comparison{
			{H: 0, V: 1, SeedH: 8, SeedV: 8, SeedLen: 8},
			{H: 2, V: 3, SeedH: 8, SeedV: 8, SeedLen: 8},
			{H: 4, V: 1, SeedH: 8, SeedV: 8, SeedLen: 8}, // a2 interns onto a
		})
		d := a.NewStreamingDataset("smoke", plan, false)
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		return d, a
	}
	cfg := goldenConfigs()["reads-partition"].cfg
	cfg.DedupExtensions = true
	cfg.Traceback = true

	single, arena1 := build(0x7fffffff)
	if arena1.NumSlabs() != 1 {
		t.Fatalf("control spine has %d slabs", arena1.NumSlabs())
	}
	multi, arenaN := build(48)
	if arenaN.NumSlabs() < 3 {
		t.Fatalf("smoke spine has %d slabs, want ≥3", arenaN.NumSlabs())
	}
	arenaN.EnableSpill(t.TempDir())
	arenaN.Seal()
	if _, err := arenaN.Spill(); err != nil {
		t.Fatal(err)
	}

	want, err := Run(single, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(multi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := reportFingerprint(want), reportFingerprint(got); a != b {
		t.Fatalf("smoke: multi-slab spilled report %s differs from single-slab %s", b, a)
	}
	if got.DedupedComparisons != 1 {
		t.Errorf("smoke: DedupedComparisons = %d, want 1 (a2 interns onto a)", got.DedupedComparisons)
	}
	if err := arenaN.Close(); err != nil {
		t.Fatal(err)
	}
}
