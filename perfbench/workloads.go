package main

import (
	"bytes"
	"fmt"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/seqio"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

// Workload parameters. Generating inputs is the benchmark's own cost: it
// happens before any clock starts and is excluded from every metric.
const (
	// modelScale divides the modeled IPU's tiles, as the repository's
	// experiment harness does, so one job's batch queue is much longer
	// than the modeled fleet (the Fig. 7 regime).
	modelScale  = 8
	modeledIPUs = 4

	overlapGenome   = 120_000
	overlapBatchCap = 64

	tracebackPairs    = 2000
	tracebackLen      = 1000
	tracebackError    = 0.15
	tracebackBatchCap = 256
	// tracebackMinScore is the fixed score gate of the gated traceback
	// jobs. About nine in ten pairs reach it, so gated jobs exercise the
	// deferred replay on most comparisons and the skip path on the rest,
	// and cost about as much as ungated ones: the two job kinds' latencies
	// overlap instead of splitting the median between two modes.
	tracebackMinScore = 560
)

// pacbioErrors is the bursty long-read error model of the Fig. 7 data.
var pacbioErrors = synth.MutationProfile{Sub: 0.02, Ins: 0.02, Del: 0.02, Burst: 0.003, BurstLen: 24}

func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale)) }

func readsSpec(name string, genome int, seed int64) synth.ReadsSpec {
	return synth.ReadsSpec{
		Name: name, GenomeLen: genome, Coverage: 12,
		MeanReadLen: 900, MinReadLen: 300, MaxReadLen: 2250,
		Errors: pacbioErrors, SeedLen: 17, MinOverlap: 225, Seed: seed,
	}
}

// kernelConfig is the fully optimised on-tile configuration the paper's
// headline numbers use.
func kernelConfig(algo core.Algo, x, deltaB int) ipukernel.Config {
	p := core.Params{Scorer: scoring.DNADefault, Gap: -1, X: x, DeltaB: deltaB, Algo: algo}
	if algo == core.AlgoAffine {
		p.GapOpen = -2
	}
	return ipukernel.Config{Params: p, LRSplit: true, WorkStealing: true, BusyWaitVariance: true, DualIssue: true}
}

func driverConfig(k ipukernel.Config, batchCap int) driver.Config {
	return driver.Config{
		IPUs:                 modeledIPUs,
		Model:                platform.GC200.Scaled(modelScale),
		Partition:            true,
		Kernel:               k,
		MaxBatchJobs:         batchCap,
		BatchOverheadSeconds: driver.DefaultBatchOverheadSeconds / modelScale,
	}
}

func overlapConfig() driver.Config {
	return driverConfig(kernelConfig(core.AlgoRestricted2, 15, 256), overlapBatchCap)
}

// tracebackConfigs returns the two job kinds the traceback workload
// alternates: ungated (every comparison traced, fused recording where it
// fits) and score-gated (deferred replay above tracebackMinScore).
func tracebackConfigs() []driver.Config {
	ungated := driverConfig(kernelConfig(core.AlgoAffine, 15, 64), tracebackBatchCap)
	ungated.Traceback = true
	ungated.TraceMode = core.TraceModeAuto
	gated := ungated
	gated.TraceMinScore = tracebackMinScore
	return []driver.Config{ungated, gated}
}

// input is one generated dataset in the form the system ingests: FASTA
// text plus the comparison plan over its records.
type input struct {
	name  string
	fasta []byte
	seqs  int
	plan  *workload.Plan
}

func toInput(d *workload.Dataset) input {
	var b bytes.Buffer
	for i, s := range d.Sequences {
		fmt.Fprintf(&b, ">r%d\n", i)
		b.Write(s)
		b.WriteByte('\n')
	}
	return input{name: d.Name, fasta: b.Bytes(), seqs: len(d.Sequences), plan: workload.PlanOf(d.Comparisons)}
}

// ingest packs the FASTA text into a fresh arena and builds the dataset
// over it — the system's ingestion path.
func (in input) ingest() (*workload.Dataset, error) {
	a := workload.NewArena(len(in.fasta), in.seqs)
	if _, err := a.AppendFasta(bytes.NewReader(in.fasta), seqio.DNAAlphabet); err != nil {
		return nil, fmt.Errorf("ingest %s: %w", in.name, err)
	}
	return a.NewDataset(in.name, in.plan, false), nil
}

func overlapInput(seed int64, scale float64) input {
	return toInput(synth.Reads(readsSpec("overlap", scaled(overlapGenome, scale), seed)))
}

func tracebackInput(seed int64, scale float64) input {
	return toInput(synth.UniformPairs(synth.UniformPairsSpec{
		Count: scaled(tracebackPairs, scale), Length: tracebackLen,
		ErrorRate: tracebackError, SeedLen: 17, Seed: seed,
	}))
}

// provenance describes how a workload's inputs were generated, for the
// run's detail line.
func provenance(name string, seed int64, scale float64) map[string]any {
	p := map[string]any{"workload": name, "seed": seed, "scale": scale,
		"model": fmt.Sprintf("GC200/%d x %d IPUs", modelScale, modeledIPUs)}
	switch name {
	case "overlap":
		p["generator"] = fmt.Sprintf("synth.Reads genome=%d coverage=12 read=900(300..2250) errors=%+v k=17 minOverlap=225",
			scaled(overlapGenome, scale), pacbioErrors)
		p["config"] = fmt.Sprintf("Restricted2 X=15 deltab=256 score-only partition=on batchCap=%d; 1 closed-loop client via engine.Submit", overlapBatchCap)
	case "traceback":
		p["generator"] = fmt.Sprintf("synth.UniformPairs count=%d length=%d error=%.2f k=17",
			scaled(tracebackPairs, scale), tracebackLen, tracebackError)
		p["config"] = fmt.Sprintf("Affine gapOpen=-2 X=15 deltab=64 traceback batchCap=%d; jobs alternate TraceModeAuto ungated / TraceMinScore=%d; 1 closed-loop client",
			tracebackBatchCap, tracebackMinScore)
	}
	return p
}
