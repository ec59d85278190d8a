// Package driver is the host-side wrapping layer of §4.4: it owns the
// batches, schedules them over multiple standalone IPU devices through a
// shared work queue, and models the shared 100 Gb/s host link including
// prefetch overlap (transfers for the next batch proceed while a device
// computes, as the M2000 DRAM buffering permits).
//
// The devices stay hidden from the caller — scaling up is a matter of
// setting Config.IPUs, exactly like the paper's NUMBER_IPUS parameter
// (§5.3). Planning (batch construction and kernel execution) is separate
// from scheduling, so strong-scaling sweeps re-schedule the same plan at
// many device counts without recomputing alignments.
package driver

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipu"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/metrics"
	"github.com/sram-align/xdropipu/internal/partition"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/workload"
)

// Config selects the device fleet and execution strategy.
type Config struct {
	// IPUs is the device count (NUMBER_IPUS).
	IPUs int
	// Model is the IPU generation.
	Model platform.IPUModel
	// TilesPerIPU restricts tiles per device (0 = all; Table 1 ablation
	// and scaled-down experiments).
	TilesPerIPU int
	// Kernel configures the on-tile X-Drop codelet.
	Kernel ipukernel.Config
	// Partition enables graph-based sequence reuse (§4.3) — the
	// "Multicomparison" mode of Fig. 7. Disabled, every comparison
	// travels with its own copy of both sequences.
	Partition bool
	// SeqBudget caps a partition's sequence payload in bytes (0 derives
	// a budget from tile SRAM and the dataset's longest extension).
	SeqBudget int
	// SpreadFactor targets this many items per tile so small workloads
	// still use the whole device (0 → 3).
	SpreadFactor int
	// BatchOverheadSeconds is the fixed host-side cost per submitted
	// batch (graph engagement, stream setup). Defaults to 0.5 ms.
	BatchOverheadSeconds float64
	// MaxBatchJobs caps comparisons per batch (0 = SRAM-bound batches).
	// Finer batches deepen the multi-device work queue.
	MaxBatchJobs int
	// DedupExtensions maps every comparison to its unique-extension
	// representative (content-addressed: interned bytes plus seed
	// geometry) and executes only the representatives; AssemblePlan fans
	// each result back out, so reports stay per-comparison while modeled
	// work drops. Off by default — reports are bit-identical to the
	// non-dedup stack when disabled, and per-comparison alignments are
	// identical either way.
	DedupExtensions bool
	// Cache, when non-nil, is consulted per unique extension during plan
	// building and filled when plans are assembled, so byte-identical
	// extensions across jobs are aligned once (engine.WithResultCache
	// provides a bounded sharded LRU). A non-nil Cache implies
	// DedupExtensions.
	Cache ResultCache
	// Traceback enables the traceback subsystem: every result
	// carries its CIGAR (ipukernel.AlignOut.Cigar) and the report exposes
	// peak traceback memory. Normalized folds it into Kernel.Traceback,
	// and it is part of the kernel fingerprint, so a shared result cache
	// never serves CIGAR-less entries to a traceback-enabled run (or vice
	// versa). Off, reports are bit-identical to the score-only stack.
	Traceback bool
	// TraceMinScore gates the traceback cost behind a score cutoff:
	// comparisons whose total score (left + seed + right) falls below it
	// deliver score-only results, and only the keepers pay the deferred
	// recording — mirroring seed-and-extend pipelines that report only
	// above-threshold alignments. Zero or negative traces everything.
	// Ignored without Traceback. Normalized folds it into
	// Kernel.TraceMinScore, and it is part of KernelFingerprint while
	// tracing, so a cache hit from a differently-gated run can never fan
	// out a stale (or missing) CIGAR.
	TraceMinScore int
	// TraceMode selects when directions are recorded when a comparison
	// is traced. The host always records with the fused kernel:
	// core.TraceModeAuto records inline, during the scoring pass, when
	// the extension's direction arena fits the per-thread budget and
	// defers the recording to after the score pass otherwise;
	// core.TraceModeReplay always defers; core.TraceModeFused records
	// inline wherever the kernel is eligible. All modes produce
	// bit-identical alignments; they differ in the SRAM arena the model
	// charges and in modeled time, and fold into KernelFingerprint while
	// tracing. Normalized mirrors it with Kernel.TraceMode (non-auto
	// wins).
	TraceMode core.TraceMode
	// Faults, when non-nil, installs deterministic fault injection at the
	// ExecBatch boundary: transient and permanent execution failures plus
	// straggler latency, decided per (batch, attempt) from the plan's
	// seed. Injection can fail or delay an execution but never alter a
	// delivered result, so it is excluded from KernelFingerprint and a
	// shared result cache stays sound across faulty and clean runs
	// (degraded Failed placeholders are additionally never cached). Nil
	// injects nothing — the default path is byte-for-byte the seed
	// behaviour.
	Faults *FaultPlan
}

// CacheKey is the full identity a cached extension result depends on:
// the content-addressed extension (bytes + seed geometry) and a
// fingerprint of every kernel parameter that can change an alignment
// (KernelFingerprint). The driver composes both halves on every lookup,
// so a single ResultCache shared across differently-configured runs can
// never serve one configuration's scores to another.
type CacheKey struct {
	// Kernel is KernelFingerprint of the run's kernel configuration.
	Kernel uint64
	// Ext is the extension's content-addressed identity.
	Ext workload.ExtensionKey
}

// ResultCache memoises finished extensions across jobs. Get returns the
// cached alignment for a key (GlobalID in the returned value is
// meaningless; the assembler rewrites it per comparison); Put records an
// executed extension. Implementations must be safe for concurrent use —
// the engine's executors and builders share one cache.
type ResultCache interface {
	Get(key CacheKey) (ipukernel.AlignOut, bool)
	Put(key CacheKey, out ipukernel.AlignOut)
}

// KernelFingerprint hashes every kernel-configuration input that can
// change anything in an AlignOut: the algorithm, X, δb, gap penalties
// and the full scoring table, plus the scheduling knobs that alter the
// per-result execution trace — the effective thread count (resolved
// against the model, so Threads=0 on two different IPU generations
// never aliases and an explicit default never spuriously misses), LR
// splitting and the work-stealing mode, because a racy steal re-executes
// a unit and inflates that result's Cells/Antidiagonals. Knobs that only
// change modeled time (dual issue, the cost model, host-side
// parallelism) are deliberately excluded, so runs differing only in
// those share cache entries. Trace statistics of a cache-served result
// always describe the run that computed it.
func KernelFingerprint(cfg ipukernel.Config, model platform.IPUModel) uint64 {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	p := cfg.Params
	put(int64(p.Algo))
	put(int64(p.X))
	put(int64(p.DeltaB))
	put(int64(p.Gap))
	put(int64(p.GapOpen))
	put(int64(cfg.EffectiveThreads(model)))
	flags := int64(0)
	if cfg.LRSplit {
		flags |= 1
	}
	if cfg.WorkStealing {
		flags |= 2
		// BusyWaitVariance only shapes the schedule under work stealing
		// (ipukernel documents it as ignored otherwise); hashing it
		// unconditionally would split behaviorally identical configs.
		if cfg.BusyWaitVariance {
			flags |= 4
		}
	}
	if cfg.Traceback {
		// Traceback-on results carry CIGARs and trace-byte accounting;
		// they must never be served to (or taken from) a score-only run.
		flags |= 8
	}
	put(flags)
	if cfg.Traceback {
		// The gate cutoff decides which results carry CIGARs and the
		// mode decides what the trace accounting describes — entries
		// from gated/ungated or fused/replay runs must never mix, or a
		// warm hit below the cutoff would fan out a stale CIGAR. Hashed
		// only while tracing so score-only runs keep sharing entries.
		put(int64(cfg.TraceMinScore))
		put(int64(cfg.TraceMode))
	}
	if p.Scorer != nil {
		tab := p.Scorer.Table()
		row := make([]byte, len(tab[0]))
		for _, r := range tab {
			for i, v := range r {
				row[i] = byte(v)
			}
			h.Write(row)
		}
	}
	return h.Sum64()
}

// DefaultBatchOverheadSeconds is the modeled per-batch host cost.
const DefaultBatchOverheadSeconds = 0.5e-3

// Plan is an executed batch schedule: alignments are done, per-batch
// durations and transfer sizes are known, and the plan can be replayed
// against any device count.
type Plan struct {
	cfg     Config
	tiles   int
	results []ipukernel.AlignOut
	batches []batchTiming
	// aggregates
	deviceCompute    float64
	hostBytesIn      int64
	uniqueSeqIn      int64
	hostBytesOut     int64
	theoretical      int64
	cells            int64
	sumBand          int64
	antidiags        int64
	races, stealOps  int
	clamped, maxSRAM int
	reuseFactor      float64
	// dedup / cache accounting
	uniqueExtensions     int
	dedupedComparisons   int
	cacheHits, cacheMiss int
	skippedCells         int64
	// traceback accounting
	peakTraceBytes        int
	traceBytes            int64
	tracedExt, skippedExt int
	// degraded completion accounting
	partialFailures int
}

type batchTiming struct {
	seconds  float64
	inBytes  int64
	outBytes int64
}

// Report is the outcome of one scheduled run.
type Report struct {
	// Results holds one entry per comparison, indexed like the dataset's
	// comparison list.
	Results []ipukernel.AlignOut
	// Batches is the number of BSP supersteps submitted.
	Batches int
	// IPUs is the scheduled device count.
	IPUs int
	// WallSeconds is the modeled end-to-end time: transfers on the
	// shared link, compute, result return, with prefetch overlap. This
	// is the Fig. 7 measure.
	WallSeconds float64
	// DeviceComputeSeconds sums on-device compute across batches — the
	// paper's GCUPS time base for Fig. 5 (§5.1: cycles/f, no transfers).
	DeviceComputeSeconds float64
	// TransferSeconds is the total busy time of the shared host link.
	TransferSeconds float64
	// HostBytesIn/HostBytesOut count link traffic.
	HostBytesIn, HostBytesOut int64
	// UniqueSeqBytesIn is the exact arena payload per §4.1: distinct slab
	// bytes covered by the tiles' spans. The gap to HostBytesIn is what
	// descriptor-level sequence duplication still costs on the link.
	UniqueSeqBytesIn int64
	// TheoreticalCells and Cells aggregate alignment traces.
	TheoreticalCells, Cells int64
	// SumBand and Antidiags support mean-live-band reporting.
	SumBand, Antidiags int64
	// Races and StealOps aggregate work-stealing behaviour.
	Races, StealOps int
	// Clamped counts alignments whose δb window clamped.
	Clamped int
	// ReuseFactor is the partitioner's transfer saving (1 = none).
	ReuseFactor float64
	// MaxSRAM is the largest tile footprint seen.
	MaxSRAM int
	// UniqueExtensions is the number of distinct (pair, seed) extensions
	// behind Results — equal to len(Results) unless DedupExtensions
	// collapsed duplicates.
	UniqueExtensions int
	// DedupedComparisons counts comparisons served by another row's
	// extension (0 with dedup off).
	DedupedComparisons int
	// CacheHits and CacheMisses count result-cache lookups during plan
	// building (0 without a cache).
	CacheHits, CacheMisses int
	// SkippedTheoreticalCells is the |H|·|V| volume dedup and the cache
	// kept off the device: TheoreticalCells covers executed work only,
	// and TheoreticalCells + SkippedTheoreticalCells is the per-comparison
	// total a dedup-off run would model.
	SkippedTheoreticalCells int64
	// PeakTracebackBytes is the largest single-extension direction-trace
	// footprint any tile thread held — the paper's space story measured
	// for traceback: bounded by the live-window band (2 bits per banded
	// cell, 4 for affine), never by the O(m·n) matrix. Zero with
	// Config.Traceback off. TracebackBytes sums recorded trace storage
	// over every executed extension.
	PeakTracebackBytes int
	TracebackBytes     int64
	// TracedExtensions counts executed extensions that delivered a
	// recorded trace; TraceSkippedExtensions counts ones the score gate
	// skipped (score-only results). Disjoint; both zero with traceback
	// off, and trace-overflow-degraded comparisons count in neither.
	TracedExtensions       int
	TraceSkippedExtensions int
	// PartialFailures counts comparisons that completed with a Failed
	// placeholder instead of an alignment — quarantined work the engine's
	// degraded partial-failure mode chose to report rather than retry
	// forever. Zero on any non-degraded run; Results entries with Failed
	// set carry no scores or coordinates.
	PartialFailures int
}

// GCUPS returns the paper's metric over the chosen time base.
func (r *Report) GCUPS(seconds float64) float64 {
	return metrics.GCUPS(r.TheoreticalCells, seconds)
}

// MeanBand returns the mean computed antidiagonal width.
func (r *Report) MeanBand() float64 {
	if r.Antidiags == 0 {
		return 0
	}
	return float64(r.SumBand) / float64(r.Antidiags)
}

// Normalized fills Config defaults the way every entry point (Run,
// NewPlan, the engine) must agree on, so a plan built anywhere schedules
// identically everywhere.
func (c Config) Normalized() Config {
	if c.IPUs <= 0 {
		c.IPUs = 1
	}
	if c.Model.Tiles == 0 {
		c.Model = platform.GC200
	}
	if c.SpreadFactor <= 0 {
		c.SpreadFactor = 3
	}
	// Fold the driver-level traceback switch into the kernel config (and
	// back), so fingerprints, batch execution and TileMemoryBytes all see
	// one flag no matter which level enabled it. Idempotent.
	c.Kernel.Traceback = c.Kernel.Traceback || c.Traceback
	c.Traceback = c.Kernel.Traceback
	// The trace gate and mode fold the same way (non-zero / non-auto
	// wins), so the fingerprint, the SRAM model and the tile kernel see
	// one choice regardless of which level set it. Idempotent.
	if c.Kernel.TraceMinScore == 0 {
		c.Kernel.TraceMinScore = c.TraceMinScore
	}
	c.TraceMinScore = c.Kernel.TraceMinScore
	if c.Kernel.TraceMode == core.TraceModeAuto {
		c.Kernel.TraceMode = c.TraceMode
	}
	c.TraceMode = c.Kernel.TraceMode
	return c
}

// EffectiveTiles returns the per-device tile count after clamping
// TilesPerIPU to the model.
func (c Config) EffectiveTiles() int {
	c = c.Normalized()
	tiles := c.TilesPerIPU
	if tiles <= 0 || tiles > c.Model.Tiles {
		tiles = c.Model.Tiles
	}
	return tiles
}

// BatchPlan is the build stage's output: the dataset partitioned and
// batched for the modeled device, but not yet executed. It separates the
// cheap, cancellable planning work from kernel execution so callers (the
// engine above all) can interleave batches from many plans onto a shared
// device fleet.
type BatchPlan struct {
	cfg         Config
	tiles       int
	batches     []*ipukernel.Batch
	comparisons int
	reuseFactor float64

	// arena is the spine the batches' spans address; batchSlabs[i] is the
	// sorted set of slab indices batch i references. Execution pins
	// exactly that set around each attempt (ExecBatchAttempt binds the
	// pinned views into a per-attempt batch copy), so slabs outside the
	// working set can stay spilled and hedged attempts never share
	// mutable tile state.
	arena      *workload.Arena
	batchSlabs [][]int32

	// Dedup state (nil dedup = off, every comparison executed as itself).
	dedup *workload.DedupMap
	// execUID maps a kernel GlobalID (row in the executed sub-plan) to
	// its unique-extension ordinal.
	execUID []int32
	// cachedOuts holds cache-hit results per unique-extension ordinal;
	// those extensions were never planned for execution.
	cachedOuts map[int32]ipukernel.AlignOut
	// keys / hasKey remember the cache keys of extensions that missed, so
	// AssemblePlan can fill the cache after execution.
	keys   []CacheKey
	hasKey []bool
	// cacheHits/cacheMisses count lookups at build time; cacheSkipCells
	// is the per-comparison theoretical volume cache hits kept off the
	// device (fan-out included).
	cacheHits, cacheMisses int
	cacheSkipCells         int64

	// fanOnce/fanOffsets/fanRows lazily build the uid → comparison-rows
	// index (CSR layout) behind ResultExpander and CachedResults.
	fanOnce    sync.Once
	fanOffsets []int32
	fanRows    []int32
}

// fanIndex returns the unique-extension → comparison-rows index: rows
// for ordinal uid are fanRows[fanOffsets[uid]:fanOffsets[uid+1]]. Built
// once, safe for concurrent use.
func (bp *BatchPlan) fanIndex() (offsets, rows []int32) {
	bp.fanOnce.Do(func() {
		dm := bp.dedup
		bp.fanOffsets = make([]int32, dm.Unique()+1)
		for uid, f := range dm.Fanout {
			bp.fanOffsets[uid+1] = bp.fanOffsets[uid] + f
		}
		bp.fanRows = make([]int32, len(dm.RowUID))
		next := append([]int32(nil), bp.fanOffsets[:dm.Unique()]...)
		for row, uid := range dm.RowUID {
			bp.fanRows[next[uid]] = int32(row)
			next[uid]++
		}
	})
	return bp.fanOffsets, bp.fanRows
}

// ResultExpander returns a function that maps one executed batch's raw
// results into per-comparison space: each unique extension's result is
// fanned out to every comparison row that shares it, with GlobalID
// rewritten per row — the same view AssemblePlan produces, available
// per batch so streaming consumers keep the documented "GlobalID indexes
// the submitted dataset" contract. Returns nil when the plan was built
// without dedup (results are already per-comparison). The expander holds
// only the small fan-out index, so callers may retain it after releasing
// the plan; it is safe for concurrent use.
//
// The expansion is best-effort on malformed input: a result whose
// GlobalID falls outside the executed sub-plan (impossible absent a
// kernel bug) is dropped from the stream, and the same condition fails
// the job loudly when AssemblePlan merges the full result set.
func (bp *BatchPlan) ResultExpander() func([]ipukernel.AlignOut) []ipukernel.AlignOut {
	if bp.dedup == nil {
		return nil
	}
	offsets, rows := bp.fanIndex()
	execUID := bp.execUID
	return func(out []ipukernel.AlignOut) []ipukernel.AlignOut {
		exp := make([]ipukernel.AlignOut, 0, len(out))
		for _, o := range out {
			if o.GlobalID < 0 || o.GlobalID >= len(execUID) {
				continue
			}
			uid := execUID[o.GlobalID]
			for _, row := range rows[offsets[uid]:offsets[uid+1]] {
				o.GlobalID = int(row)
				exp = append(exp, o)
			}
		}
		return exp
	}
}

// CachedResults returns the per-comparison results the build resolved
// from the result cache (fanned out, GlobalID per row, rows in ascending
// unique-extension order), or nil when nothing was cache-served. These
// extensions never execute, so they appear in no batch; streaming
// consumers receive them as an up-front update.
func (bp *BatchPlan) CachedResults() []ipukernel.AlignOut {
	if len(bp.cachedOuts) == 0 {
		return nil
	}
	offsets, rows := bp.fanIndex()
	var res []ipukernel.AlignOut
	for uid := 0; uid < bp.dedup.Unique(); uid++ {
		o, ok := bp.cachedOuts[int32(uid)]
		if !ok {
			continue
		}
		for _, row := range rows[offsets[uid]:offsets[uid+1]] {
			o.GlobalID = int(row)
			res = append(res, o)
		}
	}
	return res
}

// BuildBatches partitions and batches the dataset's comparisons without
// executing anything. The context is checked between the pipeline's
// stages (validate → dedup/cache → budget → partition → batch), so a
// cancelled submission aborts before burning kernel time.
//
// With Config.DedupExtensions (or a Cache), the build first maps every
// comparison to its unique-extension representative and — when a cache is
// attached — resolves representatives already memoised from earlier jobs;
// only the remainder is partitioned and batched. AssemblePlan fans every
// representative's result back out, so Report.Results stays one entry per
// submitted comparison.
func BuildBatches(ctx context.Context, d *workload.Dataset, cfg Config) (*BatchPlan, error) {
	cfg = cfg.Normalized()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The one dataset-validation gate for every execution path (Run,
	// NewPlan, engine Submit): layers below index Ω without re-checking.
	if err := d.Validate(); err != nil {
		return nil, err
	}
	bp := &BatchPlan{cfg: cfg, comparisons: len(d.Comparisons)}

	// The dataset the partitioner sees: the submission itself, or the
	// unique-extension sub-plan over the same arena when dedup is on.
	execD := d
	var fanout []int32
	if cfg.DedupExtensions || cfg.Cache != nil {
		arena, plan := d.Spine()
		dm := arena.DedupPlan(plan)
		// Duplicate-free traffic with no cache to consult: the executed
		// sub-plan would be the whole plan, so skip the plan copy, the
		// derived dataset and the per-row fan-out entirely — the plain
		// path is byte-for-byte identical.
		dedupUseful := cfg.Cache != nil || dm.Duplicates() > 0
		if dedupUseful {
			bp.dedup = dm
		}
		var kernelFP uint64
		if cfg.Cache != nil {
			bp.cachedOuts = make(map[int32]ipukernel.AlignOut)
			bp.keys = make([]CacheKey, dm.Unique())
			bp.hasKey = make([]bool, dm.Unique())
			kernelFP = KernelFingerprint(cfg.Kernel, cfg.Model)
		}
		if dedupUseful {
			execRows := make([]int32, 0, dm.Unique())
			for uid, row := range dm.UniqueRows {
				c := plan.At(int(row))
				if cfg.Cache != nil {
					key := CacheKey{Kernel: kernelFP, Ext: arena.ExtensionKeyOf(c)}
					if out, ok := cfg.Cache.Get(key); ok {
						out.GlobalID = -1
						bp.cachedOuts[int32(uid)] = out
						bp.cacheHits++
						bp.cacheSkipCells += int64(dm.Fanout[uid]) *
							int64(arena.Ref(c.H).Len) * int64(arena.Ref(c.V).Len)
						continue
					}
					bp.cacheMisses++
					bp.keys[uid], bp.hasKey[uid] = key, true
				}
				bp.execUID = append(bp.execUID, int32(uid))
				execRows = append(execRows, row)
				fanout = append(fanout, dm.Fanout[uid])
			}
			if len(execRows) == 0 {
				// Every extension came from the cache: nothing to execute.
				bp.tiles = cfg.EffectiveTiles()
				bp.reuseFactor = 1
				return bp, nil
			}
			if len(execRows) == plan.Len() {
				// Identity mapping — nothing collapsed, nothing cached
				// (execRows ≤ unique ≤ rows, so equality implies both).
				// Partition the submission itself and skip the plan copy;
				// the keys/execUID bookkeeping still feeds the Put pass.
				fanout = nil
			} else {
				execD = arena.NewDataset(d.Name, plan.Select(execRows), d.Protein)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	seqBudget := cfg.SeqBudget
	if seqBudget <= 0 {
		var err error
		seqBudget, err = partition.DeriveSeqBudget(execD, cfg.Kernel, cfg.Model)
		if err != nil {
			return nil, err
		}
	}
	tiles := cfg.EffectiveTiles()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Cap partition size so the workload spreads over every tile.
	maxCmps := 0
	if target := tiles * cfg.SpreadFactor; target > 0 && len(execD.Comparisons) > 0 {
		maxCmps = (len(execD.Comparisons) + target - 1) / target
		if maxCmps < 1 {
			maxCmps = 1
		}
	}
	items := partition.BuildItems(execD, partition.Options{
		SeqBudget: seqBudget,
		Reuse:     cfg.Partition,
		MaxCmps:   maxCmps,
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	batches, err := partition.MakeBatchesFanout(execD, items, tiles, cfg.Kernel, cfg.Model, cfg.MaxBatchJobs, fanout)
	if err != nil {
		return nil, err
	}
	bp.tiles = tiles
	bp.batches = batches
	bp.reuseFactor = partition.ReuseFactor(execD, items)
	bp.arena, _ = execD.Spine()
	bp.batchSlabs = batchSlabSets(batches)
	return bp, nil
}

// batchSlabSets computes, per batch, the sorted set of spine slabs its
// tiles' spans reference — the exact residency the batch needs pinned
// while it executes.
func batchSlabSets(batches []*ipukernel.Batch) [][]int32 {
	sets := make([][]int32, len(batches))
	for bi, b := range batches {
		seen := make(map[int32]struct{})
		for ti := range b.Tiles {
			for _, r := range b.Tiles[ti].Seqs {
				seen[r.Slab] = struct{}{}
			}
		}
		set := make([]int32, 0, len(seen))
		for si := range seen {
			set = append(set, si)
		}
		slices.Sort(set)
		sets[bi] = set
	}
	return sets
}

// boundBatch pins batch i's slab set in the arena and returns the batch
// bound to the pinned views, plus the release hook. Pinning an already
// resident slab is a counter bump, so the plain in-memory path pays one
// mutex round-trip per batch execution.
func (bp *BatchPlan) boundBatch(i int) (*ipukernel.Batch, func(), error) {
	b := bp.batches[i]
	if bp.arena == nil {
		return b, func() {}, nil
	}
	pin, err := bp.arena.Pin(bp.batchSlabs[i])
	if err != nil {
		return nil, nil, fmt.Errorf("driver: batch %d slab pin: %w", i, err)
	}
	return b.Bound(pin.Slabs()), pin.Release, nil
}

// Batches returns the number of supersteps in the build.
func (bp *BatchPlan) Batches() int { return len(bp.batches) }

// Comparisons returns the dataset's comparison count.
func (bp *BatchPlan) Comparisons() int { return bp.comparisons }

// NewDevice creates a modeled device matching the plan's configuration.
// Executors create one per goroutine and reuse it across batches (and,
// in the engine, across plans with the same configuration).
func (bp *BatchPlan) NewDevice() *ipu.Device {
	return ipu.New(ipu.Config{Model: bp.cfg.Model, TilesEnabled: bp.tiles})
}

// KernelConfig resolves the kernel configuration for an executor pool of
// the given width: an unset Parallelism splits the CPU budget between the
// pool and each Run's tile pool so nested pools do not multiply into P²
// goroutines.
func (bp *BatchPlan) KernelConfig(poolWorkers int) ipukernel.Config {
	kcfg := bp.cfg.Kernel
	if kcfg.Parallelism <= 0 && poolWorkers > 0 {
		kcfg.Parallelism = max(1, runtime.GOMAXPROCS(0)/poolWorkers)
	}
	return kcfg
}

// ExecBatch runs batch i on dev. Batches are independent (disjoint
// comparisons, no shared device state that affects results), so any
// executor may run any subset in any order; per-batch results are
// deterministic. It is attempt 0 of ExecBatchAttempt — the path every
// pre-fault-tolerance caller keeps.
func (bp *BatchPlan) ExecBatch(dev *ipu.Device, i int, kcfg ipukernel.Config) (*ipukernel.BatchResult, error) {
	return bp.ExecBatchAttempt(dev, i, 0, kcfg)
}

// ExecBatchAttempt runs one attempt of batch i on dev, consulting the
// configured fault plan first: an injected transient or permanent fault
// returns a *FaultError without touching the device, and a straggler
// decision delays the (otherwise normal) execution. attempt numbers
// re-executions of the same batch — retries and hedges — so a seeded
// plan's schedule is reproducible per execution, not just per batch.
// Whenever an attempt returns a result, it is bit-identical to every
// other attempt's: injection can only fail or delay, never corrupt.
func (bp *BatchPlan) ExecBatchAttempt(dev *ipu.Device, i, attempt int, kcfg ipukernel.Config) (*ipukernel.BatchResult, error) {
	if f := bp.cfg.Faults; f != nil {
		if err := f.inject(i, attempt); err != nil {
			return nil, err
		}
	}
	b, release, err := bp.boundBatch(i)
	if err != nil {
		return nil, err
	}
	defer release()
	return ipukernel.Run(dev, b, kcfg)
}

// ExecBatchHost runs batch i through the reference host path: the same
// deterministic extension implementation (internal/core) the tile
// codelet wraps, executed on a private device outside the shared fleet
// and outside any installed fault plan. It is the graceful-degradation
// escape hatch for quarantined batches — per-comparison results are
// bit-identical to fleet execution by the determinism invariant, and the
// modeled accounting describes the same deterministic superstep, so a
// report assembled from any mix of fleet and host executions is
// bit-identical to the fault-free run.
func (bp *BatchPlan) ExecBatchHost(i int, kcfg ipukernel.Config) (*ipukernel.BatchResult, error) {
	b, release, err := bp.boundBatch(i)
	if err != nil {
		return nil, err
	}
	defer release()
	return ipukernel.Run(bp.NewDevice(), b, kcfg)
}

// FailedBatchResult synthesizes batch i's degraded outcome: one Failed
// placeholder per comparison (GlobalID preserved, everything else zero)
// and no modeled work. It is what the engine delivers for a quarantined
// batch completing in partial-failure mode; AssemblePlan fans the
// placeholders out like any result and counts them in
// Report.PartialFailures.
func (bp *BatchPlan) FailedBatchResult(i int) *ipukernel.BatchResult {
	b := bp.batches[i]
	res := &ipukernel.BatchResult{Out: make([]ipukernel.AlignOut, 0, len(b.Tiles))}
	for ti := range b.Tiles {
		for _, job := range b.Tiles[ti].Jobs {
			res.Out = append(res.Out, ipukernel.AlignOut{GlobalID: job.GlobalID, Failed: true})
		}
	}
	return res
}

// AssemblePlan merges executed batch results into a replayable Plan. The
// merge runs in batch order — results are keyed by GlobalID and the
// aggregates are order-independent sums — so the plan (and every Report
// scheduled from it) is identical for any execution interleaving.
//
// When the plan was built with dedup, executed (and cache-hit) results
// are gathered per unique extension first, then fanned out to every
// comparison that shares the extension, with GlobalID rewritten per row;
// freshly executed extensions are pushed into the configured cache so
// later jobs can skip them.
func AssemblePlan(bp *BatchPlan, outs []*ipukernel.BatchResult) (*Plan, error) {
	if len(outs) != len(bp.batches) {
		return nil, fmt.Errorf("driver: %d batch results for %d batches", len(outs), len(bp.batches))
	}
	p := &Plan{
		cfg:              bp.cfg,
		tiles:            bp.tiles,
		results:          make([]ipukernel.AlignOut, bp.comparisons),
		reuseFactor:      bp.reuseFactor,
		uniqueExtensions: bp.comparisons,
		cacheHits:        bp.cacheHits,
		cacheMiss:        bp.cacheMisses,
		skippedCells:     bp.cacheSkipCells,
	}
	var uniqueOut []ipukernel.AlignOut
	var have []bool
	if bp.dedup != nil {
		p.uniqueExtensions = bp.dedup.Unique()
		p.dedupedComparisons = bp.dedup.Duplicates()
		uniqueOut = make([]ipukernel.AlignOut, bp.dedup.Unique())
		have = make([]bool, bp.dedup.Unique())
		for uid, out := range bp.cachedOuts {
			uniqueOut[uid] = out
			have[uid] = true
		}
	}
	for bi, res := range outs {
		if res == nil {
			return nil, fmt.Errorf("driver: batch %d has no result", bi)
		}
		for _, o := range res.Out {
			if bp.dedup != nil {
				if o.GlobalID < 0 || o.GlobalID >= len(bp.execUID) {
					return nil, fmt.Errorf("driver: result for unknown comparison %d", o.GlobalID)
				}
				uid := bp.execUID[o.GlobalID]
				uniqueOut[uid] = o
				have[uid] = true
				continue
			}
			if o.GlobalID < 0 || o.GlobalID >= len(p.results) {
				return nil, fmt.Errorf("driver: result for unknown comparison %d", o.GlobalID)
			}
			p.results[o.GlobalID] = o
			if o.Clamped {
				p.clamped++
			}
		}
		p.batches = append(p.batches, batchTiming{
			seconds:  res.Seconds,
			inBytes:  res.HostBytesIn,
			outBytes: res.HostBytesOut,
		})
		p.deviceCompute += res.Seconds
		p.hostBytesIn += res.HostBytesIn
		p.uniqueSeqIn += res.UniqueSeqBytesIn
		p.hostBytesOut += res.HostBytesOut
		p.theoretical += res.TheoreticalCells
		p.cells += res.Cells
		p.sumBand += res.SumBand
		p.antidiags += res.Antidiags
		p.races += res.Races
		p.stealOps += res.StealOps
		p.skippedCells += res.DedupSkippedCells
		p.traceBytes += res.TraceBytes
		p.tracedExt += res.TracedExtensions
		p.skippedExt += res.TraceSkippedExtensions
		if res.PeakTraceBytes > p.peakTraceBytes {
			p.peakTraceBytes = res.PeakTraceBytes
		}
		if res.MaxSRAM > p.maxSRAM {
			p.maxSRAM = res.MaxSRAM
		}
	}
	if bp.dedup != nil {
		// Fan each unique extension's result back out to every comparison
		// that shares it. Coordinates and scores are content-derived, so
		// duplicates receive bit-identical alignments; only GlobalID is
		// per-row.
		for i := range p.results {
			uid := bp.dedup.RowUID[i]
			if !have[uid] {
				return nil, fmt.Errorf("driver: no result for unique extension %d (comparison %d)", uid, i)
			}
			o := uniqueOut[uid]
			o.GlobalID = i
			if o.Clamped {
				p.clamped++
			}
			p.results[i] = o
		}
		if bp.cfg.Cache != nil {
			for uid, ok := range bp.hasKey {
				// Failed placeholders are degraded bookkeeping, not
				// alignments: caching one would serve a fault's shadow to
				// a later (possibly fault-free) job.
				if ok && have[uid] && !uniqueOut[uid].Failed {
					o := uniqueOut[uid]
					o.GlobalID = -1
					bp.cfg.Cache.Put(bp.keys[uid], o)
				}
			}
		}
	}
	for i := range p.results {
		if p.results[i].Failed {
			p.partialFailures++
		}
	}
	return p, nil
}

// NewPlan partitions, batches and executes the dataset's comparisons on
// the modeled device, producing a replayable schedule.
func NewPlan(d *workload.Dataset, cfg Config) (*Plan, error) {
	return NewPlanContext(context.Background(), d, cfg)
}

// NewPlanContext is NewPlan with cancellation: the context propagates
// into plan building and is checked before each batch execution, so a
// cancelled caller stops burning CPU at the next batch boundary.
func NewPlanContext(ctx context.Context, d *workload.Dataset, cfg Config) (*Plan, error) {
	bp, err := BuildBatches(ctx, d, cfg)
	if err != nil {
		return nil, err
	}

	// A GOMAXPROCS-bounded worker pool pulls batch indexes from an atomic
	// cursor, each worker driving its own modeled device.
	outs := make([]*ipukernel.BatchResult, len(bp.batches))
	errs := make([]error, len(bp.batches))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(bp.batches) {
		workers = len(bp.batches)
	}
	kcfg := bp.KernelConfig(workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev := bp.NewDevice()
			for {
				bi := int(cursor.Add(1)) - 1
				if bi >= len(bp.batches) || ctx.Err() != nil {
					return
				}
				outs[bi], errs[bi] = bp.ExecBatch(dev, bi, kcfg)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return AssemblePlan(bp, outs)
}

// Batches returns the number of supersteps in the plan.
func (p *Plan) Batches() int { return len(p.batches) }

// Schedule replays the plan on ipus devices sharing one host link and
// returns the resulting report. Batches are pulled from a shared queue by
// the earliest-free device; inputs prefetch over the link while devices
// compute (the M2000 DRAM buffers them, §2.1.1); results return on the
// link's reverse direction.
func (p *Plan) Schedule(ipus int) *Report {
	if ipus <= 0 {
		ipus = 1
	}
	rep := &Report{
		Results:                 p.results,
		Batches:                 len(p.batches),
		IPUs:                    ipus,
		DeviceComputeSeconds:    p.deviceCompute,
		HostBytesIn:             p.hostBytesIn,
		UniqueSeqBytesIn:        p.uniqueSeqIn,
		HostBytesOut:            p.hostBytesOut,
		TheoreticalCells:        p.theoretical,
		Cells:                   p.cells,
		SumBand:                 p.sumBand,
		Antidiags:               p.antidiags,
		Races:                   p.races,
		StealOps:                p.stealOps,
		Clamped:                 p.clamped,
		ReuseFactor:             p.reuseFactor,
		MaxSRAM:                 p.maxSRAM,
		UniqueExtensions:        p.uniqueExtensions,
		DedupedComparisons:      p.dedupedComparisons,
		CacheHits:               p.cacheHits,
		CacheMisses:             p.cacheMiss,
		SkippedTheoreticalCells: p.skippedCells,
		PeakTracebackBytes:      p.peakTraceBytes,
		TracebackBytes:          p.traceBytes,
		TracedExtensions:        p.tracedExt,
		TraceSkippedExtensions:  p.skippedExt,
		PartialFailures:         p.partialFailures,
	}
	overhead := p.cfg.BatchOverheadSeconds
	if overhead <= 0 {
		overhead = DefaultBatchOverheadSeconds
	}
	ipuFree := make([]float64, ipus)
	linkInFree, linkOutFree, wall, linkBusy := 0.0, 0.0, 0.0, 0.0
	linkRate := p.cfg.Model.HostLinkBytesPerSec

	for _, b := range p.batches {
		dev := 0
		for i := 1; i < ipus; i++ {
			if ipuFree[i] < ipuFree[dev] {
				dev = i
			}
		}
		inTime := overhead + float64(b.inBytes)/linkRate
		outTime := float64(b.outBytes) / linkRate
		// Host→device transfers queue FIFO on the link's forward
		// direction and may run ahead of the device (prefetch).
		transferEnd := linkInFree + inTime
		linkInFree = transferEnd
		computeStart := transferEnd
		if ipuFree[dev] > computeStart {
			computeStart = ipuFree[dev]
		}
		computeEnd := computeStart + b.seconds
		ipuFree[dev] = computeEnd
		// Results return on the reverse direction.
		outStart := computeEnd
		if linkOutFree > outStart {
			outStart = linkOutFree
		}
		outEnd := outStart + outTime
		linkOutFree = outEnd
		if outEnd > wall {
			wall = outEnd
		}
		linkBusy += inTime + outTime
	}
	rep.WallSeconds = wall
	rep.TransferSeconds = linkBusy
	return rep
}

// Run plans and schedules in one step.
func Run(d *workload.Dataset, cfg Config) (*Report, error) {
	p, err := NewPlan(d, cfg)
	if err != nil {
		return nil, err
	}
	return p.Schedule(cfg.IPUs), nil
}
