package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/metrics"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

// EngineBenchSchema versions the BENCH_engine.json layout. v2 added the
// dedup/cache section (hit rate, dedup ratio, duplicate-heavy speedup);
// v3 added the traceback section (traceback-on vs score-only Mcells/s
// and peak traceback bytes); v4 added the faults section (throughput
// under injected transient fault rates with retries on); v5 added the
// kernel_tiers section (int16 vs int32 throughput per variant on a
// short-band and a wide-band regime, with tier counters); v6 added the
// arena_spine section (throughput and link bytes across slab layouts,
// resident vs spill-before-every-job, bit-identity verified in-bench);
// v7 added the traceback_fastpath section (score-gated replay and fused
// single-pass recording: Mcells/s at cutoff off/p50/p95 for both trace
// modes on a small-band workload, bit-identity verified in-bench); v8
// removed kernel_tiers with the int16 host kernels it measured (the
// narrow width survives only as an SRAM-model charge, which has no host
// throughput to report).
const EngineBenchSchema = "xdropipu-bench-engine/v8"

// VariantThroughput is one kernel variant's host-measured throughput.
type VariantThroughput struct {
	// Name is the core algorithm ("restricted2", "standard3", "affine").
	Name string `json:"name"`
	// McellsPerSec is computed DP cells over host wall time.
	McellsPerSec float64 `json:"mcells_per_sec"`
	// Cells is the computed cell count behind the measurement.
	Cells int64 `json:"cells"`
}

// EngineThroughput is the engine's host-measured throughput at one
// concurrency level.
type EngineThroughput struct {
	// Submitters is the concurrent client count.
	Submitters int `json:"submitters"`
	// Jobs is the total submissions across all clients.
	Jobs int `json:"jobs"`
	// JobsPerSec is completed submissions over host wall time.
	JobsPerSec float64 `json:"jobs_per_sec"`
	// McellsPerSec is computed DP cells over host wall time.
	McellsPerSec float64 `json:"mcells_per_sec"`
	// WallSeconds is the host wall time for the whole burst.
	WallSeconds float64 `json:"wall_seconds"`
}

// DedupThroughput measures duplicate-extension elimination and the
// cross-job result cache on a duplicate-heavy workload: the same jobs run
// against a plain engine and a WithResultCache engine.
type DedupThroughput struct {
	// DupFactor is how many times each comparison is duplicated within a
	// job (cross-job duplication comes from resubmitting the dataset).
	DupFactor int `json:"dup_factor"`
	// Jobs is the submissions per engine.
	Jobs int `json:"jobs"`
	// BaselineJobsPerSec and DedupJobsPerSec are completed submissions
	// over host wall time, dedup/cache off vs on.
	BaselineJobsPerSec float64 `json:"baseline_jobs_per_sec"`
	DedupJobsPerSec    float64 `json:"dedup_jobs_per_sec"`
	// Speedup is DedupJobsPerSec / BaselineJobsPerSec.
	Speedup float64 `json:"speedup"`
	// DedupRatio is comparisons per unique extension within one job
	// (≥ 1; 4 means 4× duplication fully collapsed).
	DedupRatio float64 `json:"dedup_ratio"`
	// CacheHitRate is hits/(hits+misses) across the cached engine's
	// lifetime.
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// TracebackThroughput measures the cost and footprint of traceback: the
// same plan run score-only and with CIGAR emission.
type TracebackThroughput struct {
	// ScoreOnlyMcellsPerSec and TracebackMcellsPerSec are computed DP
	// cells over host wall time with traceback off vs on (the on run
	// pays direction recording, so the ratio tracks the recording cost).
	ScoreOnlyMcellsPerSec float64 `json:"score_only_mcells_per_sec"`
	TracebackMcellsPerSec float64 `json:"traceback_mcells_per_sec"`
	// PeakTracebackBytes is Report.PeakTracebackBytes of the traceback
	// run: the largest single-extension direction trace, bounded by the
	// live-window band.
	PeakTracebackBytes int `json:"peak_traceback_bytes"`
	// TracebackBytes is the total recorded trace storage of the run.
	TracebackBytes int64 `json:"traceback_bytes"`
}

// TraceFastpathCutoff is one gate setting's measurement in the
// traceback-fastpath bench: the same workload run with CIGAR emission
// under the given score cutoff, once per trace mode.
type TraceFastpathCutoff struct {
	// Cutoff names the gate setting ("off", "p50", "p95" — percentiles
	// of the workload's score distribution).
	Cutoff string `json:"cutoff"`
	// MinScore is the TraceMinScore value the percentile resolved to
	// (0 for "off").
	MinScore int `json:"min_score"`
	// ReplayMcellsPerSec and FusedMcellsPerSec are computed DP cells
	// over host wall time under TraceModeReplay vs TraceModeFused. Both
	// record with the fused kernel: replay mode scores first and re-runs
	// it for every traced extension afterwards, fused mode records
	// inline, so the gap is the cost of that second sweep.
	ReplayMcellsPerSec float64 `json:"replay_mcells_per_sec"`
	FusedMcellsPerSec  float64 `json:"fused_mcells_per_sec"`
	// TracedExtensions and SkippedExtensions are the gate counters of
	// the run (identical across modes; disjoint, summing to every
	// extension).
	TracedExtensions  int `json:"traced_extensions"`
	SkippedExtensions int `json:"skipped_extensions"`
}

// TracebackFastpathThroughput measures the score-gated traceback fast
// path and inline (fused-mode) against deferred (replay-mode) recording
// on a small-band, hit-sparse workload. Every gated or fused run is
// verified bit-identical in-bench: above-cutoff results against the
// ungated replay run, below-cutoff results against the score-only run.
type TracebackFastpathThroughput struct {
	// ScoreOnlyMcellsPerSec is the traceback-off baseline on the same
	// workload — the ceiling the gated path approaches as the cutoff
	// rises.
	ScoreOnlyMcellsPerSec float64 `json:"score_only_mcells_per_sec"`
	// Cutoffs holds one row per gate setting (off, p50, p95).
	Cutoffs []TraceFastpathCutoff `json:"cutoffs"`
}

// SpineLayoutThroughput is one slab layout's measurement: the same
// workload packed into Slabs slabs, run resident or with the whole spine
// spilled to disk before every job.
type SpineLayoutThroughput struct {
	// Slabs is the spine's actual slab count for this layout.
	Slabs int `json:"slabs"`
	// Spill is true when every slab was spilled before each job, so each
	// job pays the fault-in path for the slab sets its batches pin.
	Spill bool `json:"spill"`
	// JobsPerSec is completed driver runs over host wall time.
	JobsPerSec float64 `json:"jobs_per_sec"`
	// McellsPerSec is computed DP cells over host wall time.
	McellsPerSec float64 `json:"mcells_per_sec"`
	// HostBytesIn is the modeled link traffic of one job — slab-layout
	// independent by construction, so every layout row must agree.
	HostBytesIn int64 `json:"host_bytes_in"`
	// Faults is the arena's lifetime fault-in count after the runs
	// (0 for resident layouts).
	Faults int64 `json:"faults"`
}

// ArenaSpineThroughput measures the multi-slab arena spine: identical
// content across slab layouts and residency modes, every run verified
// bit-identical to the single-slab resident baseline before any number
// is reported.
type ArenaSpineThroughput struct {
	// Jobs is the driver runs per layout.
	Jobs int `json:"jobs"`
	// Layouts holds one row per (slab count, spill) combination.
	Layouts []SpineLayoutThroughput `json:"layouts"`
}

// FaultRateThroughput is the engine's throughput under one injected
// transient-fault rate with retries enabled.
type FaultRateThroughput struct {
	// Rate is the per-execution transient fault probability.
	Rate float64 `json:"rate"`
	// JobsPerSec is completed submissions over host wall time.
	JobsPerSec float64 `json:"jobs_per_sec"`
	// McellsPerSec is computed DP cells over host wall time.
	McellsPerSec float64 `json:"mcells_per_sec"`
	// Retries is Stats.Retries after the run — re-executions paid.
	Retries int64 `json:"retries"`
	// FaultsInjected is the plan's lifetime injection count.
	FaultsInjected int64 `json:"faults_injected"`
}

// FaultsThroughput measures graceful degradation under fault injection:
// the same jobs run at increasing transient fault rates with per-batch
// retry enabled, every job still completing bit-identically.
type FaultsThroughput struct {
	// Jobs is the submissions per rate.
	Jobs int `json:"jobs"`
	// Rates holds one measurement per injected fault rate (0 first, the
	// fault-free baseline).
	Rates []FaultRateThroughput `json:"rates"`
}

// EngineBenchResult is the machine-readable BENCH_engine.json payload:
// the per-variant kernel throughput plus engine throughput under
// concurrent submitters, the dedup/cache measurement and the traceback
// cost, tracked across PRs.
type EngineBenchResult struct {
	Schema     string               `json:"schema"`
	Scale      int                  `json:"scale"`
	SizeFactor float64              `json:"size_factor"`
	Variants   []VariantThroughput  `json:"variants"`
	Engine     []EngineThroughput   `json:"engine"`
	Dedup      *DedupThroughput     `json:"dedup"`
	Traceback  *TracebackThroughput `json:"traceback"`
	Faults     *FaultsThroughput    `json:"faults"`
	// TracebackFastpath measures the score gate and fused recording.
	TracebackFastpath *TracebackFastpathThroughput `json:"traceback_fastpath"`
	// ArenaSpine measures slab-layout and spill costs on the arena spine.
	ArenaSpine *ArenaSpineThroughput `json:"arena_spine"`
}

// engineBenchDataset is the common workload: dense enough to produce
// several batches per job so concurrent jobs really interleave.
func (o Options) engineBenchDataset(seedOff int64) *workload.Dataset {
	return o.fig7Dataset(fmt.Sprintf("engine-%d", seedOff), 120_000, 900, 90+seedOff)
}

// EngineBench measures kernel-variant and engine throughput on the host
// clock. Unlike the modeled-time experiments, these numbers track the
// repository's real execution speed across PRs.
func EngineBench(opt Options) (*EngineBenchResult, error) {
	opt = opt.withDefaults()
	res := &EngineBenchResult{
		Schema:     EngineBenchSchema,
		Scale:      opt.Scale,
		SizeFactor: opt.SizeFactor,
	}

	// Kernel variants, one plan each, timed end to end on the host.
	d := opt.engineBenchDataset(0)
	for _, algo := range []core.Algo{core.AlgoRestricted2, core.AlgoStandard3, core.AlgoAffine} {
		cfg := opt.driverConfig(15, 256, 1)
		cfg.Kernel.Params.Algo = algo
		if algo == core.AlgoAffine {
			cfg.Kernel.Params.GapOpen = -2
		}
		start := time.Now()
		rep, err := driver.Run(d, cfg)
		if err != nil {
			return nil, fmt.Errorf("variant %s: %w", algo, err)
		}
		el := time.Since(start).Seconds()
		res.Variants = append(res.Variants, VariantThroughput{
			Name:         algo.String(),
			McellsPerSec: float64(rep.Cells) / 1e6 / el,
			Cells:        rep.Cells,
		})
	}

	// Engine throughput: bursts of concurrent submitters against one
	// persistent engine. Jobs per level are fixed at full size so levels
	// compare queueing behaviour, but scale down with SizeFactor so the
	// smoke suite (and its -race rerun) stays cheap.
	jobsPerLevel := opt.n(16)
	if jobsPerLevel > 16 {
		jobsPerLevel = 16
	}
	unique := make([]*workload.Dataset, min(4, jobsPerLevel))
	for i := range unique {
		unique[i] = opt.engineBenchDataset(int64(1 + i))
	}
	datasets := make([]*workload.Dataset, jobsPerLevel)
	for i := range datasets {
		datasets[i] = unique[i%len(unique)]
	}
	for _, submitters := range []int{1, 4, 16} {
		cfg := opt.driverConfig(15, 256, 1)
		cfg.MaxBatchJobs = 64 // several batches per job → real interleaving
		eng := engine.New(engine.WithDriverConfig(cfg), engine.WithQueueDepth(submitters))
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			cells    int64
			firstErr error
		)
		start := time.Now()
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := s; i < jobsPerLevel; i += submitters {
					job, err := eng.Submit(context.Background(), datasets[i])
					if err == nil {
						var rep *driver.Report
						rep, err = job.Wait(context.Background())
						if err == nil {
							mu.Lock()
							cells += rep.Cells
							mu.Unlock()
							continue
						}
					}
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("submitter %d: %w", s, err)
					}
					mu.Unlock()
					return
				}
			}(s)
		}
		wg.Wait()
		el := time.Since(start).Seconds()
		if err := eng.Close(); err != nil {
			return nil, err
		}
		if firstErr != nil {
			return nil, firstErr
		}
		res.Engine = append(res.Engine, EngineThroughput{
			Submitters:   submitters,
			Jobs:         jobsPerLevel,
			JobsPerSec:   float64(jobsPerLevel) / el,
			McellsPerSec: float64(cells) / 1e6 / el,
			WallSeconds:  el,
		})
	}

	dedup, err := dedupBench(opt)
	if err != nil {
		return nil, err
	}
	res.Dedup = dedup

	tb, err := tracebackBench(opt)
	if err != nil {
		return nil, err
	}
	res.Traceback = tb

	tf, err := tracebackFastpathBench(opt)
	if err != nil {
		return nil, err
	}
	res.TracebackFastpath = tf

	fl, err := faultsBench(opt)
	if err != nil {
		return nil, err
	}
	res.Faults = fl

	sp, err := arenaSpineBench(opt)
	if err != nil {
		return nil, err
	}
	res.ArenaSpine = sp
	return res, nil
}

// arenaSpineBench measures the multi-slab spine: the same workload packed
// into ~1, ~4 and ~16 slabs, run resident and with every slab spilled to
// disk before each job. Slab layout must cost nothing on the link
// (HostBytesIn identical across layouts) and nothing in results (every
// run verified bit-identical to the single-slab resident baseline); the
// spill rows price the fault-in path of batch-level slab pinning.
func arenaSpineBench(opt Options) (*ArenaSpineThroughput, error) {
	jobs := opt.n(4)
	if jobs > 4 {
		jobs = 4
	}
	if jobs < 2 {
		jobs = 2
	}
	base := opt.engineBenchDataset(11)
	cfg := opt.driverConfig(15, 256, 1)
	cfg.MaxBatchJobs = 64
	golden, err := driver.Run(base, cfg)
	if err != nil {
		return nil, fmt.Errorf("spine bench (golden): %w", err)
	}
	longest, total := 0, 0
	for _, s := range base.Sequences {
		longest = max(longest, len(s))
		total += len(s)
	}

	out := &ArenaSpineThroughput{Jobs: jobs}
	for _, slabs := range []int{1, 4, 16} {
		slabCap := max(longest, total/slabs+1)
		for _, spill := range []bool{false, true} {
			a := workload.NewArena(0, len(base.Sequences))
			a.SetMaxSlabBytes(slabCap)
			for _, s := range base.Sequences {
				a.Append(s)
			}
			d := a.NewStreamingDataset(base.Name, workload.PlanOf(base.Comparisons), base.Protein)
			var dir string
			if spill {
				if dir, err = os.MkdirTemp("", "xdropipu-spine-"); err != nil {
					return nil, fmt.Errorf("spine bench: %w", err)
				}
				a.EnableSpill(dir)
				a.Seal()
			}
			run := func() (int64, int64, error) {
				var cells, bytesIn int64
				for i := 0; i < jobs; i++ {
					if spill {
						if _, err := a.Spill(); err != nil {
							return 0, 0, fmt.Errorf("spine bench (%d slabs): %w", a.NumSlabs(), err)
						}
					}
					rep, err := driver.Run(d, cfg)
					if err != nil {
						return 0, 0, fmt.Errorf("spine bench (%d slabs, spill %v): %w", a.NumSlabs(), spill, err)
					}
					for k := range rep.Results {
						if rep.Results[k] != golden.Results[k] {
							return 0, 0, fmt.Errorf("spine bench (%d slabs, spill %v): result %d diverged from the single-slab baseline",
								a.NumSlabs(), spill, k)
						}
					}
					if rep.HostBytesIn != golden.HostBytesIn {
						return 0, 0, fmt.Errorf("spine bench (%d slabs, spill %v): HostBytesIn %d, baseline %d — slab layout leaked into link traffic",
							a.NumSlabs(), spill, rep.HostBytesIn, golden.HostBytesIn)
					}
					cells += rep.Cells
					bytesIn = rep.HostBytesIn
				}
				return cells, bytesIn, nil
			}
			start := time.Now()
			cells, bytesIn, err := run()
			el := time.Since(start).Seconds()
			st := a.Residency()
			if spill {
				if cerr := a.Close(); err == nil && cerr != nil {
					err = fmt.Errorf("spine bench: %w", cerr)
				}
				os.RemoveAll(dir)
			}
			if err != nil {
				return nil, err
			}
			out.Layouts = append(out.Layouts, SpineLayoutThroughput{
				Slabs:        a.NumSlabs(),
				Spill:        spill,
				JobsPerSec:   float64(jobs) / el,
				McellsPerSec: float64(cells) / 1e6 / el,
				HostBytesIn:  bytesIn,
				Faults:       st.Faults,
			})
		}
	}
	return out, nil
}

// faultsBench runs the same jobs at increasing injected transient-fault
// rates with retries enabled and measures the throughput cost of riding
// out the failures. Results are verified bit-identical to the fault-free
// run at every rate — fault tolerance that silently corrupted reports
// would be worse than none.
func faultsBench(opt Options) (*FaultsThroughput, error) {
	jobs := opt.n(6)
	if jobs > 6 {
		jobs = 6
	}
	if jobs < 2 {
		jobs = 2
	}
	d := opt.engineBenchDataset(7)
	golden, err := driver.Run(d, func() driver.Config {
		cfg := opt.driverConfig(15, 256, 1)
		cfg.MaxBatchJobs = 64
		return cfg
	}())
	if err != nil {
		return nil, fmt.Errorf("faults bench (golden): %w", err)
	}

	out := &FaultsThroughput{Jobs: jobs}
	for _, rate := range []float64{0, 0.05, 0.20} {
		cfg := opt.driverConfig(15, 256, 1)
		cfg.MaxBatchJobs = 64
		eopts := []engine.Option{
			engine.WithDriverConfig(cfg),
			engine.WithRetry(8, 0),
			engine.WithRetryBackoff(200*time.Microsecond, 2*time.Millisecond),
		}
		var plan *driver.FaultPlan
		if rate > 0 {
			plan = driver.NewFaultPlan(42, driver.FaultSpec{TransientRate: rate})
			eopts = append(eopts, engine.WithFaultPlan(plan))
		}
		eng := engine.New(eopts...)
		var cells int64
		start := time.Now()
		for i := 0; i < jobs; i++ {
			job, err := eng.Submit(context.Background(), d)
			if err != nil {
				eng.Close()
				return nil, fmt.Errorf("faults bench (rate %.2f): %w", rate, err)
			}
			rep, err := job.Wait(context.Background())
			if err != nil {
				eng.Close()
				return nil, fmt.Errorf("faults bench (rate %.2f): %w", rate, err)
			}
			if len(rep.Results) != len(golden.Results) {
				eng.Close()
				return nil, fmt.Errorf("faults bench (rate %.2f): %d results, want %d", rate, len(rep.Results), len(golden.Results))
			}
			for k := range rep.Results {
				if rep.Results[k] != golden.Results[k] {
					eng.Close()
					return nil, fmt.Errorf("faults bench (rate %.2f): result %d diverged from fault-free run", rate, k)
				}
			}
			cells += rep.Cells
		}
		el := time.Since(start).Seconds()
		st := eng.Stats()
		if err := eng.Close(); err != nil {
			return nil, err
		}
		out.Rates = append(out.Rates, FaultRateThroughput{
			Rate:           rate,
			JobsPerSec:     float64(jobs) / el,
			McellsPerSec:   float64(cells) / 1e6 / el,
			Retries:        st.Retries,
			FaultsInjected: st.FaultsInjected,
		})
	}
	return out, nil
}

// tracebackBench times the same workload score-only and with traceback
// enabled, and reports the peak trace footprint the traceback run
// measured.
func tracebackBench(opt Options) (*TracebackThroughput, error) {
	d := opt.engineBenchDataset(9)
	run := func(traceback bool) (*driver.Report, float64, error) {
		cfg := opt.driverConfig(15, 256, 1)
		cfg.Traceback = traceback
		start := time.Now()
		rep, err := driver.Run(d, cfg)
		return rep, time.Since(start).Seconds(), err
	}
	repOff, elOff, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("traceback bench (score-only): %w", err)
	}
	repOn, elOn, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("traceback bench (traceback): %w", err)
	}
	return &TracebackThroughput{
		ScoreOnlyMcellsPerSec: float64(repOff.Cells) / 1e6 / elOff,
		TracebackMcellsPerSec: float64(repOn.Cells) / 1e6 / elOn,
		PeakTracebackBytes:    repOn.PeakTracebackBytes,
		TracebackBytes:        repOn.TracebackBytes,
	}, nil
}

// tracebackFastpathBench measures the score-gated traceback fast path
// and inline against deferred recording (both run the fused kernel; the
// deferred one after a separate score pass). The workload is small-band
// (δb=64, reads capped at ~900 bp so forced fusion's per-thread arenas
// stay within tile SRAM) and hit-sparse under the higher cutoffs: at p95
// only one in twenty comparisons pays for a CIGAR, so throughput should
// approach the score-only ceiling. Every run is verified bit-identical
// before any number is reported: above-cutoff results against the
// ungated replay run, below-cutoff results against the score-only run —
// which also pins replay and fused to identical output at every cutoff.
func tracebackFastpathBench(opt Options) (*TracebackFastpathThroughput, error) {
	d := synth.Reads(synth.ReadsSpec{
		Name: "trace-fastpath", GenomeLen: opt.n(120_000), Coverage: 12,
		MeanReadLen: 700, MinReadLen: 300, MaxReadLen: 900,
		Errors:  synth.MutationProfile{Sub: 0.02, Ins: 0.02, Del: 0.02, Burst: 0.003, BurstLen: 24},
		SeedLen: 17, MinOverlap: 200, Seed: opt.Seed + 41,
	})
	// Racy work stealing duplicates a unit's execution on exact counter
	// ties, inflating that result's trace stats — and the tie pattern
	// depends on per-unit instruction costs, which differ between replay
	// mode (score pass plus a deferred recording) and fused mode (one
	// inline sweep). That schedule noise is documented, fingerprinted
	// behaviour, but it would confound the cross-mode bit-identity oracle
	// here, so the fastpath bench runs statically scheduled.
	mkCfg := func(minScore int, mode core.TraceMode) driver.Config {
		cfg := opt.driverConfig(15, 64, 1)
		cfg.Kernel.WorkStealing = false
		cfg.Traceback = true
		cfg.TraceMinScore = minScore
		cfg.TraceMode = mode
		return cfg
	}
	scoreCfg := opt.driverConfig(15, 64, 1)
	scoreCfg.Kernel.WorkStealing = false

	start := time.Now()
	scoreOnly, err := driver.Run(d, scoreCfg)
	elOff := time.Since(start).Seconds()
	if err != nil {
		return nil, fmt.Errorf("trace fastpath bench (score-only): %w", err)
	}
	golden, err := driver.Run(d, mkCfg(0, core.TraceModeReplay))
	if err != nil {
		return nil, fmt.Errorf("trace fastpath bench (golden): %w", err)
	}

	scores := make([]int, len(scoreOnly.Results))
	for i, r := range scoreOnly.Results {
		scores[i] = r.Score
	}
	sort.Ints(scores)
	out := &TracebackFastpathThroughput{
		ScoreOnlyMcellsPerSec: float64(scoreOnly.Cells) / 1e6 / elOff,
	}
	for _, cut := range []struct {
		name  string
		score int
	}{
		{"off", 0},
		{"p50", scores[len(scores)/2]},
		{"p95", scores[len(scores)*95/100]},
	} {
		row := TraceFastpathCutoff{Cutoff: cut.name, MinScore: cut.score}
		for _, mode := range []core.TraceMode{core.TraceModeReplay, core.TraceModeFused} {
			start := time.Now()
			rep, err := driver.Run(d, mkCfg(cut.score, mode))
			el := time.Since(start).Seconds()
			if err != nil {
				return nil, fmt.Errorf("trace fastpath bench (%s/%s): %w", cut.name, mode, err)
			}
			for k := range rep.Results {
				want := golden.Results[k]
				if cut.score > 0 && want.Score < cut.score {
					want = scoreOnly.Results[k]
				}
				if rep.Results[k] != want {
					return nil, fmt.Errorf("trace fastpath bench (%s/%s): result %d diverged from the oracle",
						cut.name, mode, k)
				}
			}
			if rep.TracedExtensions+rep.TraceSkippedExtensions != 2*len(rep.Results) {
				return nil, fmt.Errorf("trace fastpath bench (%s/%s): gate counters %d+%d are not a partition of %d extensions",
					cut.name, mode, rep.TracedExtensions, rep.TraceSkippedExtensions, 2*len(rep.Results))
			}
			mcells := float64(rep.Cells) / 1e6 / el
			if mode == core.TraceModeReplay {
				row.ReplayMcellsPerSec = mcells
				row.TracedExtensions = rep.TracedExtensions
				row.SkippedExtensions = rep.TraceSkippedExtensions
			} else {
				row.FusedMcellsPerSec = mcells
			}
		}
		out.Cutoffs = append(out.Cutoffs, row)
	}
	return out, nil
}

// duplicateComparisons returns a view of d with every comparison repeated
// factor times — the duplicate-heavy shape overlap pipelines produce when
// candidate sets are resubmitted.
func duplicateComparisons(d *workload.Dataset, factor int) *workload.Dataset {
	cmps := make([]workload.Comparison, 0, len(d.Comparisons)*factor)
	for f := 0; f < factor; f++ {
		cmps = append(cmps, d.Comparisons...)
	}
	return &workload.Dataset{
		Name: fmt.Sprintf("%s-dup%d", d.Name, factor), Sequences: d.Sequences,
		Comparisons: cmps, Protein: d.Protein,
	}
}

// dedupBench times a duplicate-heavy workload (4× duplicated comparisons,
// the same dataset resubmitted per job) against a plain engine and a
// WithResultCache engine, and reports the throughput gain plus the dedup
// ratio and cache hit rate behind it.
func dedupBench(opt Options) (*DedupThroughput, error) {
	const dupFactor = 4
	jobs := opt.n(8)
	if jobs > 8 {
		jobs = 8
	}
	if jobs < 2 {
		jobs = 2
	}
	d := duplicateComparisons(opt.engineBenchDataset(5), dupFactor)

	run := func(cached bool) (jobsPerSec float64, st engine.Stats, rep *driver.Report, err error) {
		cfg := opt.driverConfig(15, 256, 1)
		cfg.MaxBatchJobs = 64
		eopts := []engine.Option{engine.WithDriverConfig(cfg)}
		if cached {
			eopts = append(eopts, engine.WithResultCache(0))
		}
		eng := engine.New(eopts...)
		defer eng.Close()
		start := time.Now()
		for i := 0; i < jobs; i++ {
			job, err := eng.Submit(context.Background(), d)
			if err != nil {
				return 0, engine.Stats{}, nil, err
			}
			if rep, err = job.Wait(context.Background()); err != nil {
				return 0, engine.Stats{}, nil, err
			}
		}
		el := time.Since(start).Seconds()
		return float64(jobs) / el, eng.Stats(), rep, nil
	}

	base, _, _, err := run(false)
	if err != nil {
		return nil, err
	}
	dedup, st, rep, err := run(true)
	if err != nil {
		return nil, err
	}
	dt := &DedupThroughput{
		DupFactor:          dupFactor,
		Jobs:               jobs,
		BaselineJobsPerSec: base,
		DedupJobsPerSec:    dedup,
		CacheHitRate:       metrics.HitRate(st.CacheHits, st.CacheMisses),
	}
	if base > 0 {
		dt.Speedup = dedup / base
	}
	if rep != nil && rep.UniqueExtensions > 0 {
		dt.DedupRatio = float64(len(rep.Results)) / float64(rep.UniqueExtensions)
	}
	return dt, nil
}

// VerifyEngineJSON checks a BENCH_engine.json payload against the current
// schema: the version string must match and the layout must strict-decode
// (unknown or missing sections fail), so CI catches drift between the
// committed artifact and the code that regenerates it.
func VerifyEngineJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var res EngineBenchResult
	if err := dec.Decode(&res); err != nil {
		return fmt.Errorf("bench: engine JSON does not match the current layout: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("bench: engine JSON has trailing data after the payload")
	}
	if res.Schema != EngineBenchSchema {
		return fmt.Errorf("bench: engine JSON schema %q, want %q (regenerate with benchtables -json)", res.Schema, EngineBenchSchema)
	}
	if len(res.Variants) == 0 || len(res.Engine) == 0 || res.Dedup == nil ||
		res.Traceback == nil || res.Faults == nil ||
		res.ArenaSpine == nil || res.TracebackFastpath == nil {
		return fmt.Errorf("bench: engine JSON is missing sections (variants/engine/dedup/traceback/traceback_fastpath/faults/arena_spine)")
	}
	if len(res.TracebackFastpath.Cutoffs) != 3 {
		return fmt.Errorf("bench: traceback_fastpath has %d cutoff rows, want 3 (off/p50/p95)", len(res.TracebackFastpath.Cutoffs))
	}
	return nil
}

// WriteEngineJSON runs EngineBench and writes the payload as indented
// JSON (the BENCH_engine.json artifact).
func WriteEngineJSON(opt Options, w io.Writer) error {
	res, err := EngineBench(opt)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// EngineExp renders the engine benchmark as text tables (the "engine"
// experiment of the harness).
func EngineExp(opt Options) error {
	opt = opt.withDefaults()
	res, err := EngineBench(opt)
	if err != nil {
		return err
	}
	vt := metrics.NewTable("Engine — kernel variant throughput (host-measured)",
		"variant", "Mcells/s")
	for _, v := range res.Variants {
		vt.AddRow(v.Name, v.McellsPerSec)
	}
	vt.Render(opt.W)
	et := metrics.NewTable("Engine — concurrent submitter throughput (host-measured)",
		"submitters", "jobs", "jobs/s", "Mcells/s", "wall s")
	for _, e := range res.Engine {
		et.AddRow(e.Submitters, e.Jobs, e.JobsPerSec, e.McellsPerSec, e.WallSeconds)
	}
	et.AddNote("host throughput, not modeled time; tracked across PRs via BENCH_engine.json")
	et.Render(opt.W)
	if d := res.Dedup; d != nil {
		dt := metrics.NewTable("Engine — dedup + result cache on a duplicate-heavy workload",
			"dup", "jobs", "base jobs/s", "dedup jobs/s", "speedup", "dedup ratio", "hit rate")
		dt.AddRow(d.DupFactor, d.Jobs, d.BaselineJobsPerSec, d.DedupJobsPerSec,
			metrics.Ratio(d.Speedup), d.DedupRatio, metrics.Percent(d.CacheHitRate*100))
		dt.AddNote("WithResultCache vs plain engine, same %d× duplicated dataset resubmitted per job", d.DupFactor)
		dt.Render(opt.W)
	}
	if tb := res.Traceback; tb != nil {
		tt := metrics.NewTable("Engine — traceback cost (host-measured)",
			"score-only Mcells/s", "traceback Mcells/s", "peak trace B", "total trace B")
		tt.AddRow(tb.ScoreOnlyMcellsPerSec, tb.TracebackMcellsPerSec,
			tb.PeakTracebackBytes, tb.TracebackBytes)
		tt.AddNote("peak trace is per extension, bounded by the live-window band (2 bits/cell)")
		tt.Render(opt.W)
	}
	if tf := res.TracebackFastpath; tf != nil {
		ft := metrics.NewTable("Engine — score-gated traceback fast path (host-measured)",
			"cutoff", "min score", "replay Mcells/s", "fused Mcells/s", "traced", "skipped")
		for _, c := range tf.Cutoffs {
			ft.AddRow(c.Cutoff, c.MinScore, c.ReplayMcellsPerSec, c.FusedMcellsPerSec,
				c.TracedExtensions, c.SkippedExtensions)
		}
		ft.AddNote("score-only ceiling %.1f Mcells/s; both modes record with the fused kernel (replay = score pass, then a deferred fused re-run; fused = inline), verified bit-identical to the ungated/score-only oracle at every cutoff",
			tf.ScoreOnlyMcellsPerSec)
		ft.Render(opt.W)
	}
	if fl := res.Faults; fl != nil {
		ft := metrics.NewTable("Engine — throughput under injected transient faults (retries on)",
			"fault rate", "jobs", "jobs/s", "Mcells/s", "retries", "injected")
		for _, r := range fl.Rates {
			ft.AddRow(metrics.Percent(r.Rate*100), fl.Jobs, r.JobsPerSec,
				r.McellsPerSec, r.Retries, r.FaultsInjected)
		}
		ft.AddNote("every job verified bit-identical to the fault-free run; retries ride WithRetry(8, 0)")
		ft.Render(opt.W)
	}
	if sp := res.ArenaSpine; sp != nil {
		st := metrics.NewTable("Engine — arena spine across slab layouts (host-measured)",
			"slabs", "spill", "jobs", "jobs/s", "Mcells/s", "link B in", "faults")
		for _, l := range sp.Layouts {
			st.AddRow(l.Slabs, l.Spill, sp.Jobs, l.JobsPerSec, l.McellsPerSec, l.HostBytesIn, l.Faults)
		}
		st.AddNote("identical content repacked per layout; results and link bytes verified identical to the single-slab resident baseline")
		st.Render(opt.W)
	}
	return nil
}
