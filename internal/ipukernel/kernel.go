// Package ipukernel is the X-Drop codelet: it executes seed extensions on
// the simulated IPU's tiles exactly as §4.1 describes — six data-parallel
// threads per tile over the detached sequence-set/seed-list data structure
// of Fig. 4, with left/right extension splitting (§4.1.2), eventual work
// stealing (§4.1.3) and VLIW dual issue (§4.1.4) as switchable
// optimisations.
//
// The alignments themselves are computed for real (internal/core); the
// kernel charges each one a deterministic instruction cost derived from
// its execution trace, which the device (internal/ipu) converts to time.
package ipukernel

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/ipu"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/workload"
)

// SeedJob is one comparison placed on a tile. Sequence references are
// local to the tile's detached sequence set, so a sequence shared by many
// comparisons is stored (and transferred) once — the optimisation that
// saves O(#seeds) host traffic (§4.1.1).
type SeedJob struct {
	// HLocal and VLocal index the tile's Seqs.
	HLocal, VLocal int
	// SeedH, SeedV, SeedLen locate the seed match.
	SeedH, SeedV, SeedLen int
	// GlobalID identifies the comparison in the submitting dataset.
	GlobalID int
	// Fanout is the number of planned comparisons this job represents
	// after duplicate-extension elimination (0 or 1 = itself only). It is
	// host bookkeeping for skipped-work accounting — the device tuple
	// (JobTupleBytes) does not ship it, because fan-out happens on the
	// host when results are assembled.
	Fanout int
}

// TileWork is the per-tile input of Fig. 4: the sequence set ω_i plus the
// seed-extension list. The set is held as spans into the shared arena
// spine — the dataset's packed Ω — so batches from any number of
// concurrent jobs reference one copy of the pool, and transfer sizes fall
// out of the spans instead of summed slice headers.
type TileWork struct {
	// Slabs is the spine slab table the tile's spans address, indexed by
	// SeqRef.Slab (shared, immutable). The partitioner leaves it nil and
	// the driver binds it per execution attempt (Batch.Bound) from the
	// arena's pinned slab set, so slabs a batch does not touch can stay
	// spilled; standalone tiles built with AddSeq carry their private
	// slab here directly.
	Slabs [][]byte
	// Seqs is the detached sequence set ω_i as spans into Slabs.
	Seqs []workload.SeqRef
	// Jobs is the seed-extension list over Seqs.
	Jobs []SeedJob
}

// Seq returns local sequence i as a zero-copy view into its slab.
func (t *TileWork) Seq(i int) []byte {
	r := t.Seqs[i]
	s := t.Slabs[r.Slab]
	return s[r.Off:r.End():r.End()]
}

// AddSeq appends s to the tile's private slab (the last entry of Slabs)
// and returns its local index. It is the standalone construction path
// (tests, single-tile tools); the partitioner instead points tiles at the
// dataset's shared arena spine. Like Arena.Append, it panics if the slab
// would outgrow 32-bit offsets.
func (t *TileWork) AddSeq(s []byte) int {
	if len(t.Slabs) == 0 {
		t.Slabs = append(t.Slabs, nil)
	}
	si := len(t.Slabs) - 1
	slab := t.Slabs[si]
	if len(slab)+len(s) > workload.MaxSlabBytes {
		panic(fmt.Sprintf("ipukernel: tile slab would exceed %d bytes", workload.MaxSlabBytes))
	}
	t.Seqs = append(t.Seqs, workload.SeqRef{Slab: int32(si), Off: int32(len(slab)), Len: int32(len(s))})
	t.Slabs[si] = append(slab, s...)
	return len(t.Seqs) - 1
}

// SeqBytes returns the tile's sequence payload size: the sum of span
// lengths, charging one transfer per descriptor (a sequence placed twice —
// the Copies mode — is transferred twice, as on the real device).
func (t *TileWork) SeqBytes() int {
	n := 0
	for _, r := range t.Seqs {
		n += int(r.Len)
	}
	return n
}

// UniqueSeqBytes returns the distinct slab bytes the tile's spans cover —
// the exact §4.1 payload an arena-aware exchange would ship, with spans
// deduplicated and overlaps merged. SeqBytes ≥ UniqueSeqBytes; the gap is
// what descriptor-level duplication still costs.
func (t *TileWork) UniqueSeqBytes() int {
	n, _ := t.uniqueSeqBytes(nil)
	return n
}

// uniqueSeqBytes is UniqueSeqBytes with a reusable sort scratch, so the
// per-batch accounting loop in Run stays allocation-free once warm.
// Spans merge only within their own slab — offsets in different slabs
// are unrelated addresses — so the sort is (slab, offset)-ordered and a
// slab change closes the current merge run. The total is therefore
// identical however the same logical pool is cut into slabs.
func (t *TileWork) uniqueSeqBytes(scratch []workload.SeqRef) (int, []workload.SeqRef) {
	if len(t.Seqs) == 0 {
		return 0, scratch
	}
	scratch = append(scratch[:0], t.Seqs...)
	slices.SortFunc(scratch, func(a, b workload.SeqRef) int {
		if a.Slab != b.Slab {
			return int(a.Slab) - int(b.Slab)
		}
		return int(a.Off) - int(b.Off)
	})
	n := 0
	cur := scratch[0]
	for _, s := range scratch[1:] {
		if s.Slab == cur.Slab && s.Off <= cur.End() {
			if s.End() > cur.End() {
				cur.Len = s.End() - cur.Off
			}
			continue
		}
		n += int(cur.Len)
		cur = s
	}
	return n + int(cur.Len), scratch
}

// Batch is one BSP superstep's worth of work across tiles.
type Batch struct {
	// Tiles holds at most device.Tiles() entries.
	Tiles []TileWork
}

// Jobs counts all comparisons in the batch.
func (b *Batch) Jobs() int {
	n := 0
	for i := range b.Tiles {
		n += len(b.Tiles[i].Jobs)
	}
	return n
}

// Bound returns a shallow copy of the batch with every tile's slab table
// set to slabs (tiles share Seqs and Jobs with the original). This is
// the driver's per-attempt binding step: the partitioner emits tiles
// with nil Slabs, the driver pins the batch's slab set in the arena and
// binds here, so hedged attempts racing on the same BatchPlan each get a
// private tile header array and never mutate shared state.
func (b *Batch) Bound(slabs [][]byte) *Batch {
	nb := &Batch{Tiles: make([]TileWork, len(b.Tiles))}
	for i, t := range b.Tiles {
		t.Slabs = slabs
		nb.Tiles[i] = t
	}
	return nb
}

// Wire-format sizes for SRAM and transfer accounting: a job tuple is two
// sequence references plus two 32-bit seed offsets and a length
// (Fig. 4's (seqH*, seqV*, seedBegH, seedBegV) plus k); a result slot is
// the L/R scores and end offsets.
const (
	JobTupleBytes  = 20
	ResultBytes    = 32
	seqDescrBytes  = 8 // per-sequence descriptor (pointer+length)
	batchHdrBytes  = 64
	outScoreFields = 4
)

// Config selects the kernel variant and optimisation set.
type Config struct {
	// Params configures the X-Drop extension (algorithm, X, δb, scoring).
	Params core.Params
	// Threads is the hardware thread count to use (0 → the model's six).
	Threads int
	// LRSplit schedules left and right extensions as separate work units
	// (§4.1.2); otherwise one unit computes both.
	LRSplit bool
	// WorkStealing enables the lock-free shared work list (§4.1.3);
	// otherwise units are statically assigned round-robin.
	WorkStealing bool
	// BusyWaitVariance enables the thread-unique busy-wait that turns
	// racy stealing into "eventual" work stealing (§4.1.3). Ignored
	// unless WorkStealing is set.
	BusyWaitVariance bool
	// DualIssue co-issues the integer and float pipelines (§4.1.4).
	DualIssue bool
	// Traceback enables traceback: each extension's directions are
	// recorded by the fused kernel, either inline during the scoring pass
	// or in a deferred replay after it (charged like a second DP sweep;
	// see TraceMode), and AlignOut carries the alignment's CIGAR plus
	// exact trace-memory accounting. Off, results are bit-identical to
	// the score-only kernel. Trace memory stays bounded by the live
	// window band (2 bits per banded cell for the linear variants, 4 for
	// affine), never by the full matrix; the peak single-extension
	// footprint surfaces as BatchResult.PeakTraceBytes. Replays are
	// modeled as serialized through one per-tile trace arena (a replay
	// holds the arena only while its CIGAR is emitted, and the scoring
	// pass of other units proceeds meanwhile), so TileMemoryBytes folds a
	// single arena allowance — ExtensionTraceBytes of the tile's worst
	// extension — into the SRAM gate alongside the DP buffers, making
	// traceback runs SRAM-certified end-to-end.
	Traceback bool
	// TraceMinScore gates the traceback pass on the comparison's total
	// score (left + seed + right): with a positive cutoff only
	// comparisons that reach it are traced — the rest return score-only
	// results (no CIGAR, no trace bytes), exactly as a score-only run
	// would report them. Gated replays are deferred until both extension
	// scores are known and are charged to the threads that scored the
	// sides. Zero or negative traces every comparison. Ignored unless
	// Traceback is set; part of the kernel fingerprint (when tracing), so
	// gated and ungated runs never share cache entries.
	TraceMinScore int
	// TraceMode selects when direction data is recorded when tracing.
	// The host always records with the fused kernel; the mode picks
	// inline recording (during the scoring pass, the fused Result
	// standing in for the score pass) or a deferred replay (a second
	// fused run after the score pass), and with it the SRAM arena the
	// model charges: core.TraceModeAuto records inline for eligible
	// extensions whose arena bound fits the per-thread fused budget,
	// core.TraceModeReplay always replays, core.TraceModeFused records
	// every eligible extension inline. Inline recordings live on their
	// thread for the whole scoring pass, so TileMemoryBytes charges one
	// arena per thread for them; the replay path keeps the single
	// serialized arena allowance. The score gate takes precedence: with
	// TraceMinScore active every traced extension uses the deferred
	// replay (an inline recording cannot be deferred — its buffers are
	// clobbered by the thread's next extension). Part of the kernel
	// fingerprint when tracing.
	TraceMode core.TraceMode
	// KernelTier selects the score width the SRAM model charges for the
	// per-thread DP buffers: TierWide (the default) charges int32 scores,
	// TierAuto charges int16 scores wherever the headroom proof holds.
	// The host kernels always compute on int32, so the tier never changes
	// an alignment — only modeled SRAM admission and, while tracing,
	// which arena a headroom-certified extension is charged to.
	KernelTier Tier
	// Cost is the instruction cost model (zero value → calibrated
	// defaults).
	Cost platform.KernelCost
	// Parallelism caps the host-side tile worker pool (0 → GOMAXPROCS).
	// Callers that already run Run concurrently (driver.NewPlan) divide
	// their budget here so nested pools do not multiply.
	Parallelism int
}

// EffectiveThreads resolves the configured thread count against a model:
// zero or out-of-range selects the model's hardware thread count. This is
// the single clamp the kernel executes with — cache-key fingerprints must
// use it too, so configurations that resolve to the same schedule share
// entries and ones that differ never alias.
func (c Config) EffectiveThreads(m platform.IPUModel) int {
	if c.Threads <= 0 || c.Threads > m.ThreadsPerTile {
		return m.ThreadsPerTile
	}
	return c.Threads
}

func (c Config) withDefaults(m platform.IPUModel) Config {
	c.Threads = c.EffectiveThreads(m)
	if c.Cost == (platform.KernelCost{}) {
		c.Cost = platform.DefaultKernelCost
	}
	return c
}

// Tier selects the score width the SRAM model charges for a tile's DP
// working buffers (Config.KernelTier). It never changes an alignment:
// the host kernels always compute on int32.
type Tier uint8

const (
	// TierWide charges int32 scores for every extension. The default.
	TierWide Tier = iota
	// TierAuto charges int16 scores for every extension the headroom
	// proof certifies (see WorkBufBytesPerThread), halving those
	// extensions' modeled DP buffers so partitioning admits larger
	// sequences per tile.
	TierAuto
)

// String names the tier in messages and test output.
func (t Tier) String() string {
	if t == TierAuto {
		return "auto"
	}
	return "wide"
}

// fusedTraceBudget is the per-thread direction-arena allowance of the
// auto trace mode: an extension fuses only when its ExtensionTraceBytes
// bound fits, so the concurrent recordings of a six-thread tile cost at
// most 6×16 KiB — under a sixth of the 624 KiB tile — while small-band
// extensions (the common X-Drop case) still skip the second sweep.
const fusedTraceBudget = 16 << 10

// traceGated reports whether the score-threshold gate is active.
func (c Config) traceGated() bool { return c.Traceback && c.TraceMinScore > 0 }

// fusedExtension decides whether an extension with side lengths lh×lv
// records directions during the scoring pass (inline) rather than in a
// deferred replay after it. The decision is part of the SRAM model —
// partition's budget math calls it too. A headroom-certified extension
// under TierAuto is modeled on the narrow codelet, which has no fused
// recorder, so it is always charged to the deferred replay arena.
func (c Config) fusedExtension(lh, lv int) bool {
	if !c.Traceback || c.traceGated() || c.TraceMode == core.TraceModeReplay {
		return false
	}
	if !core.FusedEligible(c.Params) || c.narrowCertified(lh, lv) {
		return false
	}
	if c.TraceMode == core.TraceModeFused {
		return true
	}
	return c.ExtensionTraceBytes(lh, lv) <= fusedTraceBudget
}

// bufCellsPerThread returns the per-thread DP window size in score cells
// for the configured algorithm given the largest min(m,n) among a tile's
// extensions: Standard3 needs 3δ scores, Restricted2 needs 2δb (§3).
func (c Config) bufCellsPerThread(maxMinLen int) int {
	delta := maxMinLen + 1
	switch c.Params.Algo {
	case core.AlgoStandard3:
		return 3 * delta
	case core.AlgoAffine:
		return 7 * delta
	case core.AlgoReference:
		// Full matrix; present for completeness, never tile-feasible
		// beyond toy sizes.
		return delta * delta
	default:
		db := c.Params.DeltaB
		if db <= 0 || db > delta {
			db = delta
		}
		return 2 * db
	}
}

// WorkBufBytesPerThread returns the per-thread DP buffer footprint for
// the configured algorithm and score-width tier given the largest
// min(m,n) among a tile's extensions. This is the quantity the 55× claim
// compares.
//
//   - TierWide (or narrow-ineligible parameters): int32 buffers only.
//   - TierAuto: when every admissible extension passes the headroom
//     proof (maxMinLen within narrowCapLen), int16 buffers only. A mixed
//     tile provisions int32 buffers for the over-cap jobs plus int16
//     buffers sized to the largest headroom-certified job.
func (c Config) WorkBufBytesPerThread(maxMinLen int) int {
	wide := c.bufCellsPerThread(maxMinLen) * wideScoreBytes
	if !c.narrowCharged() {
		return wide
	}
	capLen := narrowCapLen(c.Params.Scorer.MaxScore())
	if maxMinLen <= capLen {
		return c.bufCellsPerThread(maxMinLen) * narrowScoreBytes
	}
	return wide + c.bufCellsPerThread(capLen)*narrowScoreBytes
}

// Score-width model. An IPU codelet may keep its DP windows in int16
// lanes where the scores provably fit — the 16-bit lanes of ksw2/SSW —
// and TierAuto charges that narrower element size. Two conditions make
// int16 lanes compute exactly the integers the host's int32 kernel does:
//
//   - Eligibility (narrowEligible) bounds X ≤ maxNarrowX and
//     |Gap|,|GapOpen| ≤ maxNarrowGap, so the prune limit T−X stays in
//     [−4095, satGuard16] and arithmetic on an int16 −∞ sentinel
//     (MinInt16/4) cannot wrap.
//   - Headroom (narrowHeadroom) bounds the best score — at most
//     min(m,n) diagonal matches at maxScore each — by satGuard16, whose
//     512-point margin covers one antidiagonal's growth, so no live
//     value can leave int16.
//
// The host never runs a narrow kernel: under both conditions the int32
// result is the narrow result, so the model can charge 2 bytes without a
// second implementation to keep bit-identical.
const (
	wideScoreBytes   = core.ScoreBytes
	narrowScoreBytes = 2
	satGuard16       = math.MaxInt16 - 512
	maxNarrowX       = 4095
	maxNarrowGap     = 1024
)

// narrowEligible reports whether the parameters satisfy the int16
// lanes' preconditions.
func narrowEligible(p core.Params) bool {
	return p.X <= maxNarrowX && -p.Gap <= maxNarrowGap && -p.GapOpen <= maxNarrowGap
}

// narrowCapLen returns the largest min-side extension length for which
// narrowHeadroom holds at the given maximum per-symbol score. A
// non-positive maxScore can never saturate, so the cap is unbounded.
func narrowCapLen(maxScore int) int {
	if maxScore <= 0 {
		return math.MaxInt
	}
	return satGuard16 / maxScore
}

// narrowHeadroom reports whether an m×n extension provably never
// leaves int16.
func narrowHeadroom(m, n, maxScore int) bool {
	if maxScore <= 0 {
		return true
	}
	return int64(min(m, n))*int64(maxScore) <= satGuard16
}

// narrowCharged reports whether the configuration charges int16 scores
// for any extension at all.
func (c Config) narrowCharged() bool {
	return c.KernelTier == TierAuto && c.Params.Algo != core.AlgoReference &&
		c.Params.Scorer != nil && narrowEligible(c.Params)
}

// narrowCertified reports whether an lh×lv extension is charged on
// int16 lanes.
func (c Config) narrowCertified(lh, lv int) bool {
	return c.narrowCharged() && narrowHeadroom(lh, lv, c.Params.Scorer.MaxScore())
}

// ExtensionTraceBytes bounds the direction-trace footprint of one
// traceback replay over an extension with side lengths lh×lv: packed
// per-cell codes (2 bits per banded cell, 4 for affine) over at most
// lh+lv+1 antidiagonal windows, each at most the band wide (δb-capped
// for Restricted2) and collectively at most the full matrix, plus the
// 8-byte-per-antidiagonal window index. The bound dominates the exact
// tracer footprint (core.Trace.TraceBytes) for every input; zero with
// Config.Traceback off.
func (c Config) ExtensionTraceBytes(lh, lv int) int {
	if !c.Traceback || lh < 0 || lv < 0 {
		return 0
	}
	antid := lh + lv + 1
	bandw := min(lh, lv) + 1
	switch c.Params.Algo {
	case core.AlgoStandard3, core.AlgoAffine, core.AlgoReference:
	default:
		if db := c.Params.DeltaB; db > 0 && db < bandw {
			bandw = db
		}
	}
	cells := int64(antid) * int64(bandw)
	if full := int64(lh+1) * int64(lv+1); full < cells {
		cells = full
	}
	bits := int64(2)
	if c.Params.Algo == core.AlgoAffine {
		bits = 4
	}
	return int((cells*bits+7)/8) + 8*(antid+1)
}

// TileMemoryBytes returns the SRAM footprint of a tile's work under the
// kernel configuration: sequences, descriptors, job tuples, per-thread DP
// buffers (tier-aware), result slots, and — with traceback on — the
// direction-arena charges. Replay-path extensions share one serialized
// arena sized for the tile's worst such extension; fused-path extensions
// record concurrently on every thread, so their worst arena is charged
// once per thread. Kept in lockstep with partition.DeriveSeqBudget.
func (c Config) TileMemoryBytes(t *TileWork, model platform.IPUModel) int {
	cc := c.withDefaults(model)
	maxMin, maxReplay, maxFused := 0, 0, 0
	for _, j := range t.Jobs {
		hn, vn := int(t.Seqs[j.HLocal].Len), int(t.Seqs[j.VLocal].Len)
		// The larger extension side bounds δ for this job.
		rh, rv := hn-j.SeedH-j.SeedLen, vn-j.SeedV-j.SeedLen
		l := min(j.SeedH, j.SeedV)
		r := min(rh, rv)
		maxMin = max(maxMin, l, r)
		if cc.Traceback {
			lf, lr := cc.extensionTraceCharge(j.SeedH, j.SeedV)
			rf, rr := cc.extensionTraceCharge(rh, rv)
			maxFused = max(maxFused, lf, rf)
			maxReplay = max(maxReplay, lr, rr)
		}
	}
	return t.SeqBytes() +
		len(t.Seqs)*seqDescrBytes +
		len(t.Jobs)*JobTupleBytes +
		cc.Threads*cc.WorkBufBytesPerThread(maxMin) +
		cc.Threads*maxFused +
		maxReplay +
		len(t.Jobs)*ResultBytes +
		batchHdrBytes
}

// extensionTraceCharge splits one extension's direction-arena bound into
// the fused (per-thread) or replay (shared serialized arena) pool,
// according to where the kernel would actually record it.
func (c Config) extensionTraceCharge(lh, lv int) (fused, replay int) {
	b := c.ExtensionTraceBytes(lh, lv)
	if b == 0 {
		return 0, 0
	}
	if c.fusedExtension(lh, lv) {
		return b, 0
	}
	return 0, b
}

// TraceCharges reports one extension's direction-arena charge split into
// the fused (per-thread) and replay (shared serialized) pools — the same
// split TileMemoryBytes applies; at most one of the two is nonzero.
// Exported for partition's budget math, which must mirror the gate
// exactly or admitted tiles could lose their SRAM certification.
func (c Config) TraceCharges(lh, lv int) (fused, replay int) {
	return c.extensionTraceCharge(lh, lv)
}

// AlignOut is one comparison's result.
type AlignOut struct {
	// GlobalID echoes the job's comparison identity.
	GlobalID int
	// Score = LeftScore + seed score + RightScore.
	Score int
	// LeftScore and RightScore are the two extension scores.
	LeftScore, RightScore int
	// BegH/BegV/EndH/EndV delimit the aligned region.
	BegH, BegV, EndH, EndV int
	// Cells and Antidiagonals aggregate both extensions' traces.
	Cells         int64
	Antidiagonals int
	// MaxLiveBand is the larger δw of the two extensions.
	MaxLiveBand int
	// Clamped reports a δb clamp in either extension.
	Clamped bool
	// Failed marks a comparison whose batch exhausted the engine's fault
	// tolerance and completed as a degraded placeholder instead of an
	// alignment: GlobalID is valid, every score, coordinate and trace
	// field is zero. The kernel never sets it — it exists so degraded
	// per-comparison status can ride the same result plumbing (fan-out,
	// streaming, reports) as real alignments. Counted in
	// driver.Report.PartialFailures; never stored in a result cache.
	Failed bool
	// Cigar is the comparison's full edit script (left extension + seed
	// columns + right extension) over [BegH,EndH)×[BegV,EndV). Empty
	// unless Config.Traceback is set. Being a validated string it is
	// immutable and comparable, so results stay ==-testable and safely
	// shared through dedup fan-out and the cross-job result cache.
	Cigar alignment.Cigar
	// TraceBytes is the exact direction-trace storage both extensions'
	// replays recorded (0 with traceback off).
	TraceBytes int
}

// BatchResult aggregates one superstep.
type BatchResult struct {
	// Out holds one entry per job, in batch tile/job order.
	Out []AlignOut
	// Seconds is the modeled superstep duration (compute+exchange+sync).
	Seconds float64
	// TileInstr is the per-tile max thread instruction count.
	TileInstr []int64
	// HostBytesIn is the host→device payload (sequences, descriptors,
	// job tuples, header) — what the driver pushes over the shared link.
	HostBytesIn int64
	// UniqueSeqBytesIn is the exact arena payload: the distinct slab
	// bytes the batch's spans cover, per tile. HostBytesIn − this gap is
	// the duplication an offset-addressed exchange would eliminate.
	UniqueSeqBytesIn int64
	// HostBytesOut is the device→host result payload.
	HostBytesOut int64
	// MaxSRAM is the largest per-tile SRAM footprint in the batch.
	MaxSRAM int
	// Races counts duplicated steals (two threads grabbing one unit).
	Races int
	// StealOps counts work-steal attempts.
	StealOps int
	// Cells and TheoreticalCells aggregate the alignment traces.
	Cells, TheoreticalCells int64
	// SumBand and Antidiags support mean-band reporting.
	SumBand   int64
	Antidiags int64
	// DedupSkippedCells counts theoretical cells of duplicate comparisons
	// that this batch's jobs represent (SeedJob.Fanout) but that dedup
	// kept off the device; DedupSkippedJobs counts those comparisons.
	// Zero unless the driver planned with duplicate-extension elimination.
	DedupSkippedCells int64
	DedupSkippedJobs  int
	// PeakTraceBytes is the largest single-extension direction-trace
	// footprint any tile thread held during the batch — the extra SRAM a
	// traceback-enabled tile needs at once, bounded by the live-window
	// band (0 with Config.Traceback off). TraceBytes sums the recorded
	// trace storage across all the batch's extensions.
	PeakTraceBytes int
	TraceBytes     int64
	// Traceback-gate accounting, one count per executed extension (an
	// extension is either traced or skipped, never both; both are zero
	// with Config.Traceback off). TracedExtensions recorded and delivered
	// a direction trace (fused or replayed); TraceSkippedExtensions were
	// score-gated below Config.TraceMinScore and returned score-only
	// results. Extensions of comparisons degraded by a trace-overflow
	// failure count in neither.
	TracedExtensions       int
	TraceSkippedExtensions int
}

// GCUPSDenominatorSeconds returns on-device compute seconds — the time
// base the paper uses for IPU GCUPS (§5.1).
func (r *BatchResult) GCUPSDenominatorSeconds() float64 { return r.Seconds }

// Run executes a batch on the device and accounts one BSP superstep.
func Run(dev *ipu.Device, b *Batch, cfg Config) (*BatchResult, error) {
	cfg = cfg.withDefaults(dev.Model())
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if len(b.Tiles) > dev.Tiles() {
		return nil, fmt.Errorf("ipukernel: batch has %d tiles, device has %d", len(b.Tiles), dev.Tiles())
	}
	for ti := range b.Tiles {
		t := &b.Tiles[ti]
		for _, r := range t.Seqs {
			if r.Len == 0 {
				continue
			}
			if r.Slab < 0 || int(r.Slab) >= len(t.Slabs) || t.Slabs[r.Slab] == nil {
				return nil, fmt.Errorf("ipukernel: tile %d references slab %d but the tile's slab table is unbound (partitioned batches must be Bound to a pinned slab set before Run)", ti, r.Slab)
			}
		}
	}

	res := &BatchResult{
		TileInstr: make([]int64, len(b.Tiles)),
	}
	outOff := make([]int, len(b.Tiles))
	total := 0
	for i := range b.Tiles {
		outOff[i] = total
		total += len(b.Tiles[i].Jobs)
	}
	res.Out = make([]AlignOut, total)

	type tileStats struct {
		instr        int64
		sram         int
		races        int
		steals       int
		cells        int64
		theo         int64
		sumBand      int64
		antidiag     int64
		skippedCells int64
		skippedJobs  int
		peakTrace    int
		traceBytes   int64
		cigarBytes   int64
		tracedExt    int
		skippedExt   int
		err          error
	}
	stats := make([]tileStats, len(b.Tiles))

	// A GOMAXPROCS-sized worker pool pulls tiles from an atomic cursor:
	// per-worker executors carry the DP workspaces and scheduling scratch
	// across tiles (and, via execPool, across Run calls), so steady-state
	// tile execution allocates nothing. Results stay deterministic
	// regardless of worker count: each tile writes a disjoint slice of
	// res.Out and its own stats slot, and per-tile execution is itself
	// deterministic.
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(b.Tiles) {
		workers = len(b.Tiles)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := execPool.Get().(*executor)
			defer execPool.Put(ex)
			for {
				ti := int(cursor.Add(1)) - 1
				if ti >= len(b.Tiles) {
					return
				}
				st := &stats[ti]
				tile := &b.Tiles[ti]
				st.sram = cfg.TileMemoryBytes(tile, dev.Model())
				if st.sram > dev.DataSRAM() {
					st.err = fmt.Errorf("ipukernel: tile %d needs %d B SRAM, budget %d B (use graph partitioning / smaller δb)",
						ti, st.sram, dev.DataSRAM())
					continue
				}
				tr := runTile(tile, cfg, ex, res.Out[outOff[ti]:outOff[ti]+len(tile.Jobs)])
				st.instr = tr.maxInstr
				st.races = tr.races
				st.steals = tr.steals
				st.cells = tr.cells
				st.theo = tr.theo
				st.sumBand = tr.sumBand
				st.antidiag = tr.antidiag
				st.skippedCells = tr.skippedCells
				st.skippedJobs = tr.skippedJobs
				st.peakTrace = tr.peakTrace
				st.traceBytes = tr.traceBytes
				st.cigarBytes = tr.cigarBytes
				st.tracedExt = tr.tracedExt
				st.skippedExt = tr.skippedExt
				st.err = tr.err
			}
		}()
	}
	wg.Wait()

	maxSRAM := 0
	var spanScratch []workload.SeqRef
	for ti := range stats {
		st := &stats[ti]
		if st.err != nil {
			return nil, st.err
		}
		res.TileInstr[ti] = st.instr
		res.Races += st.races
		res.StealOps += st.steals
		res.Cells += st.cells
		res.TheoreticalCells += st.theo
		res.SumBand += st.sumBand
		res.Antidiags += st.antidiag
		res.DedupSkippedCells += st.skippedCells
		res.DedupSkippedJobs += st.skippedJobs
		if st.peakTrace > res.PeakTraceBytes {
			res.PeakTraceBytes = st.peakTrace
		}
		res.TraceBytes += st.traceBytes
		res.TracedExtensions += st.tracedExt
		res.TraceSkippedExtensions += st.skippedExt
		if st.sram > maxSRAM {
			maxSRAM = st.sram
		}
		tile := &b.Tiles[ti]
		res.HostBytesIn += int64(tile.SeqBytes() + len(tile.Seqs)*seqDescrBytes +
			len(tile.Jobs)*JobTupleBytes + batchHdrBytes)
		var unique int
		unique, spanScratch = tile.uniqueSeqBytes(spanScratch)
		res.UniqueSeqBytesIn += int64(unique)
		// CIGARs ride the result return as 4-byte packed runs on top of
		// the fixed result slot.
		res.HostBytesOut += int64(len(tile.Jobs)*ResultBytes) + st.cigarBytes
	}
	res.MaxSRAM = maxSRAM

	secs, err := dev.RunSuperstep(ipu.Superstep{
		TileInstr:     res.TileInstr,
		ExchangeBytes: res.HostBytesOut,
		SRAMUsed:      maxSRAM,
	})
	if err != nil {
		return nil, err
	}
	res.Seconds = secs
	return res, nil
}
