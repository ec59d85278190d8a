package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"github.com/sram-align/xdropipu"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/workload"
)

// referenceSample is how many comparisons per dataset the independent
// oracles re-run on the host.
const referenceSample = 24

// gate is the correctness gate: every timed job is checked against an
// untimed golden, and the goldens against independent oracles. Any
// mismatch fails the job and makes the command exit non-zero.
type gate struct {
	checks     int
	mismatches int
	first      string // first mismatch, for the error message
	digest     hash.Hash
}

func newGate() *gate { return &gate{digest: sha256.New()} }

func (g *gate) fail(format string, args ...any) {
	g.mismatches++
	if g.first == "" {
		g.first = fmt.Sprintf(format, args...)
	}
}

// golden runs the untimed driver path for one dataset and feeds its
// results into the run's digest.
func (g *gate) golden(d *workload.Dataset, cfg driver.Config) (*driver.Report, error) {
	rep, err := driver.Run(d, cfg)
	if err != nil {
		return nil, fmt.Errorf("golden %s: %w", d.Name, err)
	}
	for _, o := range rep.Results {
		fmt.Fprintf(g.digest, "%+v\n", o)
	}
	return rep, nil
}

// sameResults reports whether a job's results are bit-identical to the
// golden's; a mismatch is recorded against label.
func (g *gate) sameResults(label string, got, want []ipukernel.AlignOut) bool {
	g.checks++
	if len(got) != len(want) {
		g.fail("%s: %d results, golden has %d", label, len(got), len(want))
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			g.fail("%s: result %d = %+v, golden %+v", label, i, got[i], want[i])
			return false
		}
	}
	return true
}

// exactFields are the modeled report fields every execution of one
// dataset and configuration must reproduce exactly.
type exactFields struct {
	Batches                                  int
	WallSeconds, DeviceSeconds, ReuseFactor  float64
	Cells, Theoretical, HostBytesIn          int64
	MaxSRAM, Races, StealOps, PeakTraceBytes int
	TraceBytes                               int64
	Traced, Skipped                          int
}

func exactOf(r *driver.Report) exactFields {
	return exactFields{
		Batches: r.Batches, WallSeconds: r.WallSeconds, DeviceSeconds: r.DeviceComputeSeconds,
		ReuseFactor: r.ReuseFactor, Cells: r.Cells, Theoretical: r.TheoreticalCells,
		HostBytesIn: r.HostBytesIn, MaxSRAM: r.MaxSRAM, Races: r.Races, StealOps: r.StealOps,
		PeakTraceBytes: r.PeakTracebackBytes, TraceBytes: r.TracebackBytes,
		Traced: r.TracedExtensions, Skipped: r.TraceSkippedExtensions,
	}
}

// sameReport checks results and the modeled report fields.
func (g *gate) sameReport(label string, got, want *driver.Report) bool {
	if !g.sameResults(label, got.Results, want.Results) {
		return false
	}
	if exactOf(got) != exactOf(want) {
		g.fail("%s: modeled report %+v, golden %+v", label, exactOf(got), exactOf(want))
		return false
	}
	return true
}

// sampleRows picks n comparison rows spread evenly over the dataset.
func sampleRows(total, n int) []int {
	n = min(n, total)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i * total / n
	}
	return rows
}

func seedOf(c workload.Comparison) core.Seed {
	return core.Seed{H: c.SeedH, V: c.SeedV, Len: c.SeedLen}
}

// checkOracles re-runs a sample of the golden's comparisons through
// independent host paths. Linear-gap kernels are checked against the
// full-matrix core.Reference oracle wherever the δb window did not clamp
// (a clamped Restricted2 score is a documented lower bound); the affine
// kernel, which the reference has no form of, is checked against the
// single-threaded host extension. Every CIGAR in the golden must rebuild
// its score through xdropipu.CigarScore, and traced comparisons (all of
// them, or those at or above the score gate) must carry one.
func (g *gate) checkOracles(d *workload.Dataset, rep *driver.Report, cfg driver.Config) {
	cfg = cfg.Normalized()
	p := cfg.Kernel.Params
	for _, row := range sampleRows(len(d.Comparisons), referenceSample) {
		c := d.Comparisons[row]
		h, v := d.Sequences[c.H], d.Sequences[c.V]
		got := rep.Results[row]
		g.checks++
		if p.Algo == core.AlgoAffine {
			want, err := xdropipu.ExtendSeed(h, v, seedOf(c), p)
			if err != nil || want.Score != got.Score || want.LeftScore != got.LeftScore ||
				want.BegH != got.BegH || want.EndH != got.EndH || want.BegV != got.BegV || want.EndV != got.EndV {
				g.fail("%s: comparison %d: fleet %+v, host extension %+v (%v)", d.Name, row, got, want, err)
			}
			continue
		}
		if got.Clamped {
			continue
		}
		rp := p
		rp.Algo, rp.DeltaB = core.AlgoReference, 0
		want, err := core.ExtendSeed(h, v, seedOf(c), rp)
		if err != nil || want.Score != got.Score || want.BegH != got.BegH || want.EndH != got.EndH ||
			want.BegV != got.BegV || want.EndV != got.EndV {
			g.fail("%s: comparison %d: fleet %+v, core.Reference %+v (%v)", d.Name, row, got, want, err)
		}
	}
	if !cfg.Traceback {
		return
	}
	for row, o := range rep.Results {
		traced := cfg.TraceMinScore <= 0 || o.Score >= cfg.TraceMinScore
		g.checks++
		if traced != (o.Cigar != "") {
			g.fail("%s: comparison %d (score %d): traced=%v but cigar %q", d.Name, row, o.Score, traced, o.Cigar)
			continue
		}
		if !traced {
			continue
		}
		c := d.Comparisons[row]
		s, err := xdropipu.CigarScore(d.Sequences[c.H][o.BegH:o.EndH], d.Sequences[c.V][o.BegV:o.EndV], o.Cigar, p)
		if err != nil || s != o.Score {
			g.fail("%s: comparison %d: CIGAR rebuilds score %d, kernel %d (%v)", d.Name, row, s, o.Score, err)
		}
	}
}

func (g *gate) digestHex() string { return hex.EncodeToString(g.digest.Sum(nil))[:16] }

func (g *gate) err() error {
	if g.mismatches == 0 {
		return nil
	}
	return fmt.Errorf("correctness gate: %d of %d checks failed; first: %s", g.mismatches, g.checks, g.first)
}
