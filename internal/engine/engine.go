// Package engine exposes the modeled IPU system as a persistent
// asynchronous service, the way the paper's library does on real
// hardware (create_batches → async_submit → blocking_join): a long-lived
// Engine owns the device fleet, many clients Submit datasets
// concurrently, and each submission streams its results back batch by
// batch while the host keeps producing work.
//
// The engine layers on the driver's staged pipeline: Submit builds a
// BatchPlan asynchronously (cancellable via the submission's context),
// then a fixed pool of device executors interleaves batches from every
// active job onto the shared fleet — earliest-free device, per-job fair
// share — so one huge submission cannot starve small ones. A bounded
// admission queue provides backpressure: Submit blocks once QueueDepth
// jobs are in flight.
//
// Reports are bit-identical to driver.Run for the same dataset and
// configuration regardless of submission order, queue depth or executor
// count: batches are independent, per-batch results deterministic, and
// the final report is assembled in batch order from the job's own plan.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipu"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/platform"
	"github.com/sram-align/xdropipu/internal/workload"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("engine: closed")

// ErrDeadline settles a job whose WithJobDeadline expired in the default
// (fail) degraded mode. It wraps context.DeadlineExceeded, so
// errors.Is(err, context.DeadlineExceeded) holds.
var ErrDeadline = fmt.Errorf("engine: job deadline exceeded: %w", context.DeadlineExceeded)

// DefaultQueueDepth bounds in-flight submissions when WithQueueDepth is
// not given.
const DefaultQueueDepth = 16

// DegradedMode selects what the engine does with a batch that exhausted
// its fault tolerance (permanent fault, retry budget spent, or a job
// deadline expiring with work outstanding).
type DegradedMode uint8

const (
	// DegradeFail fails the whole job with the batch's error — the
	// pre-fault-tolerance behaviour, and the default.
	DegradeFail DegradedMode = iota
	// DegradeFallback quarantines the batch off the (faulty) fleet and
	// re-runs it through the reference host path
	// (driver.BatchPlan.ExecBatchHost). Results are bit-identical to
	// fault-free fleet execution, so the job's report is unchanged; only
	// Stats.Quarantined records the detour. Should the host path itself
	// fail (a deterministic execution error no re-run fixes), the batch
	// completes with Failed placeholders as in DegradePartial.
	DegradeFallback
	// DegradePartial completes the batch with one Failed placeholder per
	// comparison: the job finishes, Report.PartialFailures counts the
	// casualties, and each affected Results entry has Failed set.
	DegradePartial
)

// String names the mode.
func (m DegradedMode) String() string {
	switch m {
	case DegradeFail:
		return "fail"
	case DegradeFallback:
		return "fallback"
	case DegradePartial:
		return "partial"
	}
	return fmt.Sprintf("DegradedMode(%d)", uint8(m))
}

// Engine is a persistent asynchronous alignment service over the modeled
// device fleet.
type Engine struct {
	cfg          driver.Config
	queueDepth   int
	executors    int
	cacheEntries int
	cache        *resultCache

	// Fault-tolerance policy, fixed at construction.
	retryMax    int           // max retries per batch (0 = retries off)
	retryBudget int           // per-job retry cap (0 = uncapped)
	backoffBase time.Duration // first retry delay
	backoffCap  time.Duration // backoff ceiling
	deadline    time.Duration // per-job wall-clock deadline (0 = none)
	hedgeWindow time.Duration // hedging opens this long before the deadline
	degraded    DegradedMode

	mu     sync.Mutex
	cond   *sync.Cond
	active []*Job // built, unfinished jobs with work left to issue or hedge
	live   int    // admitted jobs not yet finished
	busy   int    // executors currently running a batch
	closed bool
	seq    int64

	// stats, guarded by mu
	doneJobs    int64
	doneBatches int64
	doneCells   int64
	stTraced    int64
	stSkipped   int64
	stRetries   int64
	stHedges    int64
	stQuarant   int64
	stDeadline  int64

	closedCh  chan struct{}
	slots     chan struct{} // admission tokens, cap queueDepth
	wgJobs    sync.WaitGroup
	wgWorkers sync.WaitGroup
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithDriverConfig replaces the whole driver configuration (fleet,
// kernel, partitioning). Later options still apply on top.
func WithDriverConfig(cfg driver.Config) Option { return func(e *Engine) { e.cfg = cfg } }

// WithModel selects the IPU generation.
func WithModel(m platform.IPUModel) Option { return func(e *Engine) { e.cfg.Model = m } }

// WithIPUs sets the modeled device count (NUMBER_IPUS).
func WithIPUs(n int) Option { return func(e *Engine) { e.cfg.IPUs = n } }

// WithTilesPerIPU restricts tiles per device (0 = all).
func WithTilesPerIPU(n int) Option { return func(e *Engine) { e.cfg.TilesPerIPU = n } }

// WithKernel configures the on-tile X-Drop codelet.
func WithKernel(k ipukernel.Config) Option { return func(e *Engine) { e.cfg.Kernel = k } }

// WithPartition toggles graph-based sequence reuse (§4.3).
func WithPartition(on bool) Option { return func(e *Engine) { e.cfg.Partition = on } }

// WithSeqBudget caps a partition's sequence payload in bytes.
func WithSeqBudget(b int) Option { return func(e *Engine) { e.cfg.SeqBudget = b } }

// WithMaxBatchJobs caps comparisons per batch; finer batches interleave
// concurrent jobs more smoothly.
func WithMaxBatchJobs(n int) Option { return func(e *Engine) { e.cfg.MaxBatchJobs = n } }

// WithBatchOverhead sets the modeled host-side cost per batch.
func WithBatchOverhead(sec float64) Option {
	return func(e *Engine) { e.cfg.BatchOverheadSeconds = sec }
}

// WithDedupExtensions toggles duplicate-extension elimination: every
// submission's byte-identical (pair, seed) extensions are aligned once
// and fanned back out, so reports stay per-comparison while modeled work
// drops. Off by default; per-comparison alignments are identical either
// way.
func WithDedupExtensions(on bool) Option { return func(e *Engine) { e.cfg.DedupExtensions = on } }

// WithResultCache attaches a bounded, sharded LRU result cache shared by
// every job the engine serves, keyed by (extension key, kernel-config
// fingerprint): byte-identical extensions submitted by any client — same
// job or a later one, regardless of pool numbering — are aligned once.
// entries bounds the cache (0 → DefaultResultCacheEntries). Enabling the
// cache also enables duplicate-extension elimination, which the cache
// keys ride on. Hit/miss/evict counters surface in Stats. The bound is
// per entry: under WithTraceback each entry also holds its alignment's
// CIGAR (length-proportional), so size entries accordingly and watch
// Stats.CacheBytes for the resident footprint.
func WithResultCache(entries int) Option {
	return func(e *Engine) {
		if entries <= 0 {
			entries = DefaultResultCacheEntries
		}
		e.cacheEntries = entries
		e.cfg.DedupExtensions = true
	}
}

// WithTraceback enables the traceback subsystem for every job
// the engine serves: each streamed and reported result carries its CIGAR
// (AlignOut.Cigar) and reports expose peak traceback memory. Composes
// with dedup and the result cache — a cached hit fans the stored CIGAR
// back out to every duplicate comparison, and the cache keys include the
// traceback flag so score-only and traceback runs never share entries.
func WithTraceback(on bool) Option { return func(e *Engine) { e.cfg.Traceback = on } }

// WithTraceMinScore gates the traceback cost behind a score cutoff for
// every job the engine serves: comparisons whose total score falls below
// min deliver score-only results (no CIGAR) and skip the deferred
// recording entirely, so hit-sparse workloads pay traceback only for the
// alignments they keep. Zero or negative traces everything; ignored
// without WithTraceback. The cutoff is part of the kernel fingerprint,
// so gated and ungated runs never share result-cache entries — a warm
// hit below the cutoff can never fan out a stale CIGAR. The
// TracedExtensions/TraceSkippedExtensions counters in Stats (and every
// Report) split the executed extensions across the gate.
func WithTraceMinScore(min int) Option {
	return func(e *Engine) { e.cfg.TraceMinScore = min }
}

// WithTraceMode selects when traced comparisons record their directions.
// The host always records with the fused kernel: core.TraceModeAuto
// (default) records inline, during the scoring pass, whenever the
// extension's direction arena fits the per-thread budget and defers the
// recording to after the score pass otherwise; core.TraceModeReplay
// always defers; core.TraceModeFused records inline wherever the kernel
// is eligible. All modes produce bit-identical alignments — they differ
// only in the SRAM arena the model charges and in modeled time — but the
// mode is still part of the kernel fingerprint, so caches never mix
// entries whose trace accounting describes different execution shapes.
func WithTraceMode(m core.TraceMode) Option {
	return func(e *Engine) { e.cfg.TraceMode = m }
}

// WithKernelTier selects the score width the SRAM model charges for
// every job the engine serves: ipukernel.TierWide (int32, the default)
// or ipukernel.TierAuto (int16 wherever the headroom proof holds,
// halving those extensions' modeled DP buffers so partitioning admits
// larger tiles). The host kernels always compute on int32, so results
// are identical across tiers and a shared result cache serves either.
func WithKernelTier(t ipukernel.Tier) Option {
	return func(e *Engine) { e.cfg.Kernel.KernelTier = t }
}

// WithRetry enables per-batch retry of transient execution failures:
// a batch whose attempt fails with a transient fault (a fault plan's
// FaultTransient, the only error class a re-execution can outrun) is
// re-issued after capped exponential backoff with deterministic jitter,
// up to max retries per batch and budget retries per job (budget <= 0 is
// uncapped). Retrying is provably safe here: batches are idempotent and
// every attempt's results are bit-identical, so the surviving report
// never depends on which attempt delivered — and under WithResultCache a
// retried batch's unique extensions may even return warm. Retries and
// injected faults surface in Stats.
func WithRetry(max, budget int) Option {
	return func(e *Engine) { e.retryMax, e.retryBudget = max, budget }
}

// WithRetryBackoff shapes the retry delay: the nth retry of a batch
// waits base·2ⁿ⁻¹ capped at ceil, plus a small deterministic jitter so
// simultaneous failures do not re-dogpile the fleet. Zero values keep
// the defaults (1ms base, 250ms ceiling). Backoff affects wall time
// only, never results.
func WithRetryBackoff(base, ceil time.Duration) Option {
	return func(e *Engine) { e.backoffBase, e.backoffCap = base, ceil }
}

// WithJobDeadline bounds every submission's wall-clock completion time.
// In the final fifth of the deadline, idle executors hedge: the slowest
// outstanding batch is duplicated onto a second device and the first
// result wins — safe because both executions are bit-identical by
// construction. A job still incomplete at the deadline counts in
// Stats.DeadlineExceeded and settles per WithDegradedMode: fail (the
// default, with ErrDeadline), fallback (remaining batches quarantined to
// the reference host path, full report), or partial (remaining batches
// complete as Failed placeholders).
func WithJobDeadline(d time.Duration) Option {
	return func(e *Engine) { e.deadline = d }
}

// WithDegradedMode selects how a batch that exhausted its fault
// tolerance completes: fail the job (DegradeFail, default), re-run the
// batch on the reference host path for a still-bit-identical report
// (DegradeFallback), or finish with per-comparison Failed status and
// Report.PartialFailures (DegradePartial).
func WithDegradedMode(m DegradedMode) Option {
	return func(e *Engine) { e.degraded = m }
}

// WithFaultPlan installs seeded, deterministic fault injection at the
// batch-execution boundary for every job the engine serves — the chaos
// substrate behind the retry/hedge/degradation machinery. Injected
// faults fail or delay executions but never change delivered results;
// Stats.FaultsInjected counts them.
func WithFaultPlan(p *driver.FaultPlan) Option {
	return func(e *Engine) { e.cfg.Faults = p }
}

// WithQueueDepth bounds in-flight submissions; Submit blocks (or fails
// on context cancellation) once the queue is full.
func WithQueueDepth(n int) Option { return func(e *Engine) { e.queueDepth = n } }

// WithExecutors sets the host-side executor pool width (0 → GOMAXPROCS).
// Executor count changes throughput only, never results or reports.
func WithExecutors(n int) Option { return func(e *Engine) { e.executors = n } }

// New starts an engine and its executor pool. Close releases it.
func New(opts ...Option) *Engine {
	e := &Engine{queueDepth: DefaultQueueDepth}
	for _, o := range opts {
		o(e)
	}
	e.normalize()
	if e.cacheEntries > 0 {
		// Keys carry the driver's kernel-config fingerprint, so even a
		// cache handed to differently-configured runs stays sound.
		e.cache = newResultCache(e.cacheEntries)
		e.cfg.Cache = e.cache
	}
	e.cond = sync.NewCond(&e.mu)
	e.closedCh = make(chan struct{})
	e.slots = make(chan struct{}, e.queueDepth)
	for i := 0; i < e.executors; i++ {
		e.wgWorkers.Add(1)
		go e.executor()
	}
	return e
}

func (e *Engine) normalize() {
	e.cfg = e.cfg.Normalized()
	if e.queueDepth <= 0 {
		e.queueDepth = DefaultQueueDepth
	}
	if e.executors <= 0 {
		e.executors = runtime.GOMAXPROCS(0)
	}
	if e.retryMax < 0 {
		e.retryMax = 0
	}
	if e.backoffBase <= 0 {
		e.backoffBase = time.Millisecond
	}
	if e.backoffCap <= 0 {
		e.backoffCap = 250 * time.Millisecond
	}
	if e.backoffCap < e.backoffBase {
		e.backoffCap = e.backoffBase
	}
	if e.deadline > 0 {
		// Hedging opens in the deadline's final fifth: late enough that
		// healthy batches finish undoubled, early enough that a duplicate
		// still has time to win.
		e.hedgeWindow = e.deadline / 5
	}
}

// Config returns the normalized driver configuration the fleet runs.
func (e *Engine) Config() driver.Config { return e.cfg }

// QueueDepth returns the admission bound: how many submissions may be in
// flight before Submit blocks. Together with Stats.JobsLive it gives the
// queue occupancy a service front-end sheds load on.
func (e *Engine) QueueDepth() int { return e.queueDepth }

// Executors returns the host-side executor pool width.
func (e *Engine) Executors() int { return e.executors }

// Stats is a snapshot of engine-lifetime aggregates.
type Stats struct {
	// JobsDone counts completed (not cancelled/failed) submissions.
	JobsDone int64
	// BatchesDone counts executed batches across all jobs.
	BatchesDone int64
	// CellsDone sums computed DP cells across executed batches.
	CellsDone int64
	// JobsLive counts admitted, unfinished submissions. With QueueDepth
	// it yields queue occupancy — the service tier's primary load-shedding
	// and autoscaling signal.
	JobsLive int
	// InflightBatches counts executors currently running a batch — the
	// instantaneous fleet utilisation signal.
	InflightBatches int
	// CacheHits, CacheMisses and CacheEvictions count result-cache
	// activity across all jobs (all zero without WithResultCache).
	CacheHits, CacheMisses, CacheEvictions int64
	// CacheBytes approximates the result cache's resident footprint
	// (per-entry overhead plus stored CIGAR lengths). The cache bound is
	// per entry; with traceback enabled entries carry alignment-length
	// CIGARs, and this is where that growth shows up.
	CacheBytes int64
	// Retries counts batch re-executions scheduled after transient
	// failures (WithRetry).
	Retries int64
	// Hedges counts duplicate executions issued for slow outstanding
	// batches near a job deadline (WithJobDeadline); the losing copy of a
	// hedged pair is dropped on delivery and never double-counts
	// BatchesDone or a stream.
	Hedges int64
	// Quarantined counts batches that exhausted their fault tolerance and
	// completed degraded — re-run on the reference host path
	// (DegradeFallback) or as Failed placeholders (DegradePartial).
	Quarantined int64
	// FaultsInjected counts everything the installed FaultPlan injected
	// across its lifetime: transient and permanent failures plus
	// straggler delays. Zero without WithFaultPlan.
	FaultsInjected int64
	// DeadlineExceeded counts jobs whose WithJobDeadline expired with
	// work outstanding.
	DeadlineExceeded int64
	// Traceback fast-path counters over every executed extension:
	// TracedExtensions delivered a recorded trace (CIGAR),
	// TraceSkippedExtensions fell below WithTraceMinScore's cutoff and
	// delivered score-only results. Disjoint; both zero without
	// WithTraceback.
	TracedExtensions, TraceSkippedExtensions int64
}

// Stats returns engine-lifetime counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	st := Stats{
		JobsDone:               e.doneJobs,
		BatchesDone:            e.doneBatches,
		CellsDone:              e.doneCells,
		JobsLive:               e.live,
		InflightBatches:        e.busy,
		TracedExtensions:       e.stTraced,
		TraceSkippedExtensions: e.stSkipped,
		Retries:                e.stRetries,
		Hedges:                 e.stHedges,
		Quarantined:            e.stQuarant,
		DeadlineExceeded:       e.stDeadline,
	}
	e.mu.Unlock()
	if f := e.cfg.Faults; f != nil {
		st.FaultsInjected = f.InjectedTotal()
	}
	if e.cache != nil {
		st.CacheHits = e.cache.hits.Load()
		st.CacheMisses = e.cache.misses.Load()
		st.CacheEvictions = e.cache.evictions.Load()
		st.CacheBytes = e.cache.payloadBytes.Load()
	}
	return st
}

// Submit enqueues a dataset for alignment and returns immediately with a
// Job handle. It blocks only for admission when QueueDepth jobs are
// already in flight; ctx cancels both the wait and the job itself
// (planning and any not-yet-issued batches). Arena-backed datasets are
// shared, not copied: any number of concurrent submissions of the same
// dataset reference one immutable slab of Ω, and the batches built for a
// job carry spans into it rather than private sequence slices.
func (e *Engine) Submit(ctx context.Context, d *workload.Dataset) (*Job, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case <-e.closedCh:
		return nil, ErrClosed
	default:
	}
	select {
	case e.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-e.closedCh:
		return nil, ErrClosed
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.slots
		return nil, ErrClosed
	}
	e.seq++
	// The job runs on its own cancellable child of the submission context:
	// the caller's ctx still cancels it, and Job.Cancel gives holders of
	// the handle (a network front-end cancelling on client disconnect) the
	// same clean teardown without owning the submit context.
	jctx, jcancel := context.WithCancel(ctx)
	j := &Job{
		eng:     e,
		ctx:     jctx,
		cancel:  jcancel,
		seq:     e.seq,
		dataset: d,
		built:   make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	if e.deadline > 0 {
		// The clock starts at admission: queue wait was the caller's
		// backpressure, planning and execution are the job's own.
		j.deadline = time.Now().Add(e.deadline)
	}
	e.live++
	e.wgJobs.Add(1)
	e.mu.Unlock()
	go e.runJob(j)
	return j, nil
}

// Close stops admissions, waits for every in-flight job to finish and
// shuts the executor pool down. It is idempotent; Submit afterwards
// returns ErrClosed.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wgJobs.Wait()
		e.wgWorkers.Wait()
		return nil
	}
	e.closed = true
	close(e.closedCh)
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wgJobs.Wait()
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wgWorkers.Wait()
	return nil
}

// runJob builds the job's plan (cancellable), registers it with the
// scheduler, then watches for cancellation until the job finishes.
func (e *Engine) runJob(j *Job) {
	defer e.wgJobs.Done()
	bp, err := driver.BuildBatches(j.ctx, j.dataset, e.cfg)

	// The fan-out index and cached-results view are O(comparisons);
	// build them outside the engine lock, like BuildBatches itself, so a
	// large dedup-heavy submission cannot stall executors or Submits.
	var expand func([]ipukernel.AlignOut) []ipukernel.AlignOut
	var cachedResults []ipukernel.AlignOut
	if err == nil {
		expand = bp.ResultExpander()
		cachedResults = bp.CachedResults()
	}

	// Until the job is registered below, runJob is the only goroutine
	// that can settle it, so no finished re-check is needed here.
	e.mu.Lock()
	if err != nil {
		e.finishLocked(j, nil, err)
		e.mu.Unlock()
		return
	}
	j.bp = bp
	nb := bp.Batches()
	j.outs = make([]*ipukernel.BatchResult, nb)
	j.expand = expand
	j.cachedResults = cachedResults
	j.attempts = make([]int32, nb)
	j.inflight = make([]int32, nb)
	j.hedged = make([]bool, nb)
	j.fallback = make([]bool, nb)
	j.queued = make([]bool, nb)
	j.startNS = make([]int64, nb)
	j.timers = make(map[*time.Timer]struct{})
	close(j.built)
	if nb == 0 {
		e.mu.Unlock()
		e.complete(j, bp)
		return
	}
	e.addActiveLocked(j)
	if !j.deadline.IsZero() {
		// Two alarms per deadlined job: one wakes idle executors when the
		// hedge window opens, one settles (or degrades) the job at the
		// deadline itself. Both are registered in j.timers so settlement
		// stops them; a callback that already fired re-checks under the
		// lock and becomes a no-op.
		wake := time.AfterFunc(time.Until(j.deadline)-e.hedgeWindow, func() {
			e.mu.Lock()
			e.cond.Broadcast()
			e.mu.Unlock()
		})
		expire := time.AfterFunc(time.Until(j.deadline), func() { e.deadlineExpired(j) })
		j.timers[wake] = struct{}{}
		j.timers[expire] = struct{}{}
	}
	e.cond.Broadcast()
	e.mu.Unlock()

	select {
	case <-j.ctx.Done():
		e.mu.Lock()
		if !j.finished {
			e.finishLocked(j, nil, j.ctx.Err())
		}
		e.mu.Unlock()
	case <-j.doneCh:
	}
}

// issuableLocked reports whether the job has work an executor can take:
// a retry ready to re-issue or a batch never issued.
func (j *Job) issuableLocked() bool {
	return !j.finished && (len(j.retryq) > 0 || j.nextIssue < len(j.outs))
}

// addActiveLocked (re-)registers a job with the scheduler. Jobs leave
// the active list when drained (pruneLocked) and re-enter when a retry
// timer fires or degradation re-queues a batch.
func (e *Engine) addActiveLocked(j *Job) {
	if !j.inActive && !j.finished {
		j.inActive = true
		e.active = append(e.active, j)
	}
}

// pickLocked chooses the next execution to issue: among built jobs with
// work left, the one with the fewest issued executions (ties broken by
// submission order) — a per-job fair share that keeps a flood of batches
// from one client from starving the rest. Ready retries re-issue before
// fresh batches. With nothing to issue and a job deadline configured,
// it falls back to hedging: inside a job's hedge window the slowest
// outstanding batch is duplicated once (first result wins), so a single
// straggling device cannot push an otherwise-finished job past its
// deadline. The chosen batch's issue bookkeeping (attempts, inflight,
// start time) is updated here, under the lock, so concurrent executors
// never double-pick.
func (e *Engine) pickLocked() (*Job, int, bool) {
	var best *Job
	for _, j := range e.active {
		if !j.issuableLocked() {
			continue
		}
		if best == nil || j.issued < best.issued ||
			(j.issued == best.issued && j.seq < best.seq) {
			best = j
		}
	}
	if best != nil {
		var bi int
		if n := len(best.retryq); n > 0 {
			bi = best.retryq[n-1]
			best.retryq = best.retryq[:n-1]
			best.queued[bi] = false
		} else {
			bi = best.nextIssue
			best.nextIssue++
		}
		e.issueLocked(best, bi)
		return best, bi, false
	}
	if e.deadline <= 0 {
		return nil, -1, false
	}
	now := time.Now()
	var hj *Job
	hbi := -1
	var earliest int64
	for _, j := range e.active {
		if j.finished || j.deadline.IsZero() ||
			now.Before(j.deadline.Add(-e.hedgeWindow)) {
			continue
		}
		for bi := range j.outs {
			if j.outs[bi] != nil || j.inflight[bi] == 0 || j.hedged[bi] || j.queued[bi] {
				continue
			}
			if hbi == -1 || j.startNS[bi] < earliest {
				hj, hbi, earliest = j, bi, j.startNS[bi]
			}
		}
	}
	if hj == nil {
		return nil, -1, false
	}
	hj.hedged[hbi] = true
	e.stHedges++
	e.issueLocked(hj, hbi)
	return hj, hbi, true
}

// issueLocked records one execution issue of batch bi.
func (e *Engine) issueLocked(j *Job, bi int) {
	j.issued++
	j.attempts[bi]++
	j.inflight[bi]++
	if e.deadline > 0 && j.startNS[bi] == 0 {
		j.startNS[bi] = time.Now().UnixNano()
	}
}

// executor is one device-executor goroutine: it owns a modeled device
// and pulls batches from whichever job the fair-share policy selects —
// the earliest-free-device rule falls out of executors pulling work the
// moment they go idle.
func (e *Engine) executor() {
	defer e.wgWorkers.Done()
	// The engine's configuration is fixed, so one device per executor,
	// created lazily on first work, serves every job.
	var dev *ipu.Device
	for {
		e.mu.Lock()
		var j *Job
		var bi int
		var hedge bool
		for {
			j, bi, hedge = e.pickLocked()
			if j != nil {
				break
			}
			if e.closed && e.live == 0 {
				e.mu.Unlock()
				return
			}
			e.cond.Wait()
		}
		_ = hedge                          // a hedge runs exactly like any other attempt
		attempt := int(j.attempts[bi]) - 1 // issueLocked counted this issue
		fallback := j.fallback[bi]
		e.pruneLocked()
		e.busy++
		// Split the CPU budget between each batch's tile pool and the
		// executors that will plausibly run alongside this one: the busy
		// ones plus however many of the remaining runnable batches the
		// pool can absorb. A lone batch gets the whole machine; a
		// saturated engine gives each batch one thread — and a burst of
		// picks converges immediately instead of letting the first few
		// batches keep full-width pools. Parallelism never affects
		// results, only wall time.
		width := e.busy + e.runnableLocked()
		if width > e.executors {
			width = e.executors
		}
		// Capture the plan while locked: a settled job's bp is released,
		// and this batch may race a cancellation.
		bp := j.bp
		kcfg := bp.KernelConfig(width)
		e.mu.Unlock()
		if dev == nil {
			dev = bp.NewDevice()
		}
		var out *ipukernel.BatchResult
		var err error
		if fallback {
			// Quarantined work runs on the reference host path, outside
			// the fleet and its fault plan.
			out, err = bp.ExecBatchHost(bi, kcfg)
		} else {
			out, err = bp.ExecBatchAttempt(dev, bi, attempt, kcfg)
		}
		e.deliver(j, bi, out, err, fallback)
	}
}

// runnableLocked counts executions not yet handed to an executor.
func (e *Engine) runnableLocked() int {
	n := 0
	for _, j := range e.active {
		if !j.finished {
			n += len(j.outs) - j.nextIssue + len(j.retryq)
		}
	}
	return n
}

// pruneLocked drops jobs with nothing left to issue from the active
// list. Jobs with a deadline stay while any batch is outstanding — they
// are hedge candidates — and a drained job whose retry timer later fires
// re-enters through addActiveLocked.
func (e *Engine) pruneLocked() {
	kept := e.active[:0]
	for _, j := range e.active {
		if j.issuableLocked() ||
			(!j.finished && !j.deadline.IsZero() && j.done < len(j.outs)) {
			kept = append(kept, j)
		} else {
			j.inActive = false
		}
	}
	for i := len(kept); i < len(e.active); i++ {
		e.active[i] = nil
	}
	e.active = kept
}

// deliver records one executed batch: streams it to the job's consumer
// and, on the last batch, assembles the plan and schedules the report.
// Failure classification lives here too — transient faults retry within
// the engine's policy, everything else degrades — and hedged batches
// settle first-result-wins: the losing copy is dropped before it can
// touch stats, the stream or the report. wasFallback says whether the
// execution ran on the reference host path.
func (e *Engine) deliver(j *Job, bi int, out *ipukernel.BatchResult, err error, wasFallback bool) {
	e.mu.Lock()
	e.busy--
	if !j.finished {
		j.inflight[bi]--
	}
	if j.finished { // cancelled or failed while this batch ran
		e.mu.Unlock()
		return
	}
	if j.outs[bi] != nil { // a hedged twin already delivered this batch
		e.mu.Unlock()
		return
	}
	if err != nil {
		if j.inflight[bi] > 0 {
			// A twin of this batch is still running (hedge or stale
			// fleet copy behind a quarantine); let it decide the batch.
			e.mu.Unlock()
			return
		}
		out = e.failedLocked(j, bi, err, wasFallback)
		if out == nil { // retried, re-queued, or job failed: nothing to record
			e.mu.Unlock()
			return
		}
	}
	// Copy the streamed view outside the lock when a consumer is
	// already attached — the O(batch-results) copy must not serialize
	// the scheduler. The stream can still open between the two critical
	// sections; out is not in j.outs yet, so the replay cannot duplicate
	// this batch, and the late copy below covers the send.
	streaming := j.streaming
	e.mu.Unlock()
	var upd Update
	if streaming {
		upd = streamUpdate(j, bi, out)
	}
	e.mu.Lock()
	if j.finished { // cancelled while copying
		e.mu.Unlock()
		return
	}
	if j.outs[bi] != nil { // a hedged twin delivered during the copy
		e.mu.Unlock()
		return
	}
	j.outs[bi] = out
	j.done++
	e.doneBatches++
	e.doneCells += out.Cells
	e.stTraced += int64(out.TracedExtensions)
	e.stSkipped += int64(out.TraceSkippedExtensions)
	if j.streaming {
		if !streaming {
			upd = streamUpdate(j, bi, out)
		}
		j.updates <- upd
	}
	last := j.done == len(j.outs)
	bp := j.bp
	e.mu.Unlock()
	if last {
		e.complete(j, bp)
	}
}

// failedLocked classifies one failed execution of batch bi. It returns
// a synthesized result to record (DegradePartial placeholders), or nil
// after scheduling a retry, re-queueing the batch through the host
// path, or failing the job.
func (e *Engine) failedLocked(j *Job, bi int, err error, wasFallback bool) *ipukernel.BatchResult {
	var fe *driver.FaultError
	transient := errors.As(err, &fe) && fe.Transient()
	if transient && !wasFallback && e.retryMax > 0 &&
		int(j.attempts[bi])-1 < e.retryMax &&
		(e.retryBudget <= 0 || j.retriesUsed < e.retryBudget) {
		j.retriesUsed++
		e.stRetries++
		e.scheduleRetryLocked(j, bi)
		return nil
	}
	// Fault tolerance exhausted: degrade per policy.
	switch e.degraded {
	case DegradeFallback:
		if !wasFallback {
			// Quarantine the batch off the fleet; its next execution
			// runs the reference host path and is bit-identical.
			if !j.fallback[bi] {
				j.fallback[bi] = true
				e.stQuarant++
			}
			e.requeueLocked(j, bi)
			return nil
		}
		// The reference path itself failed — deterministic, so no
		// re-run fixes it. Complete the batch with placeholders.
		return j.bp.FailedBatchResult(bi)
	case DegradePartial:
		e.stQuarant++
		return j.bp.FailedBatchResult(bi)
	}
	e.finishLocked(j, nil, err)
	return nil
}

// scheduleRetryLocked arms the backoff timer for batch bi's next
// attempt. The timer is created while the engine lock is held, so its
// callback (which takes the lock) cannot run before it is registered in
// j.timers; a callback whose job settled, whose batch delivered (hedge
// win), or whose batch is already queued becomes a no-op.
func (e *Engine) scheduleRetryLocked(j *Job, bi int) {
	var t *time.Timer
	t = time.AfterFunc(e.backoffFor(j, bi, int(j.attempts[bi])), func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		delete(j.timers, t) // nil-map delete after settlement is a no-op
		if j.finished || j.outs[bi] != nil || j.queued[bi] {
			return
		}
		j.queued[bi] = true
		j.retryq = append(j.retryq, bi)
		e.addActiveLocked(j)
		e.cond.Broadcast()
	})
	j.timers[t] = struct{}{}
}

// requeueLocked puts batch bi back on the job's ready queue (no
// backoff) and wakes executors.
func (e *Engine) requeueLocked(j *Job, bi int) {
	if !j.queued[bi] && j.outs[bi] == nil {
		j.queued[bi] = true
		j.retryq = append(j.retryq, bi)
	}
	e.addActiveLocked(j)
	e.cond.Broadcast()
}

// backoffFor shapes the delay before batch bi's next attempt:
// exponential from the base, capped at the ceiling, plus deterministic
// jitter (up to half the step, hashed from job, batch and attempt) so
// a burst of simultaneous failures does not re-dogpile the fleet in
// lockstep. Deterministic jitter keeps chaos runs reproducible.
func (e *Engine) backoffFor(j *Job, bi, attempt int) time.Duration {
	d := e.backoffBase
	for i := 1; i < attempt && d < e.backoffCap; i++ {
		d *= 2
	}
	if d > e.backoffCap {
		d = e.backoffCap
	}
	h := uint64(j.seq)*0x9e3779b97f4a7c15 ^
		uint64(int64(bi))*0xbf58476d1ce4e5b9 ^
		uint64(int64(attempt))*0x94d049bb133111eb
	h ^= h >> 33
	return d + time.Duration(h%uint64(d/2+1))
}

// deadlineExpired is the deadline timer's callback: a job still
// incomplete when it fires counts in Stats.DeadlineExceeded and settles
// per the engine's DegradedMode — fail with ErrDeadline, quarantine all
// remaining work to the reference host path, or complete immediately
// with Failed placeholders. Timers arm only after the plan is built, so
// j.outs is always populated here.
func (e *Engine) deadlineExpired(j *Job) {
	e.mu.Lock()
	if j.finished || j.done == len(j.outs) {
		e.mu.Unlock()
		return
	}
	e.stDeadline++
	switch e.degraded {
	case DegradeFallback:
		// Stop issuing fresh fleet executions and quarantine everything
		// undelivered to the host path. In-flight fleet copies keep
		// running — whichever execution delivers first wins.
		j.nextIssue = len(j.outs)
		n := 0
		for bi := range j.outs {
			if j.outs[bi] != nil || j.fallback[bi] {
				continue
			}
			j.fallback[bi] = true
			n++
			if !j.queued[bi] {
				j.queued[bi] = true
				j.retryq = append(j.retryq, bi)
			}
		}
		e.stQuarant += int64(n)
		if n > 0 {
			e.addActiveLocked(j)
			e.cond.Broadcast()
		}
		e.mu.Unlock()
	case DegradePartial:
		// Complete every undelivered batch with placeholders right now;
		// late in-flight deliveries find outs[bi] set and drop.
		bp := j.bp
		j.nextIssue = len(j.outs)
		j.retryq = nil
		for bi := range j.outs {
			if j.outs[bi] != nil {
				continue
			}
			out := bp.FailedBatchResult(bi)
			j.outs[bi] = out
			j.done++
			e.doneBatches++
			e.stQuarant++
			if j.streaming {
				j.updates <- streamUpdate(j, bi, out)
			}
		}
		e.mu.Unlock()
		e.complete(j, bp)
	default:
		e.finishLocked(j, nil, ErrDeadline)
		e.mu.Unlock()
	}
}

// complete assembles the finished job's report — bit-identical to
// driver.Run on the same dataset and configuration. The merge is
// O(comparisons), so it runs outside the engine lock: every batch is
// delivered by now (this goroutine delivered the last one), nothing
// else writes j.outs, and a racing cancellation simply wins the
// settlement below. The caller captured bp under the lock, since a
// settled job releases its plan.
func (e *Engine) complete(j *Job, bp *driver.BatchPlan) {
	plan, err := driver.AssemblePlan(bp, j.outs)
	e.mu.Lock()
	defer e.mu.Unlock()
	if j.finished { // cancelled while assembling
		return
	}
	if err != nil {
		e.finishLocked(j, nil, err)
		return
	}
	e.doneJobs++
	e.finishLocked(j, plan.Schedule(e.cfg.IPUs), nil)
}

// streamUpdate builds the streamed view of batch bi. The results are
// copied (and, under dedup, fanned out to per-comparison space so the
// Update contract holds): AssemblePlan reads the raw slice later, and a
// consumer mutating its stream must not corrupt the final report. The
// copy happens only for jobs whose consumer opened the stream — the
// channel's capacity covers the whole schedule, so sends never block an
// executor even if the consumer stops reading.
func streamUpdate(j *Job, bi int, out *ipukernel.BatchResult) Update {
	var results []ipukernel.AlignOut
	if j.expand != nil {
		results = j.expand(out.Out) // fresh slice: fan-out never aliases out.Out
	} else {
		results = append([]ipukernel.AlignOut(nil), out.Out...)
	}
	return Update{
		Batch:   bi,
		Batches: len(j.outs),
		Results: results,
		Seconds: out.Seconds,
	}
}

// openStreamLocked creates the job's update channel on first demand and
// replays already-delivered batches into it, so Results works the same
// no matter when it is called. Results the build served from the result
// cache lead the stream as a Batch == -1 update — they belong to no
// executed batch but the stream must still carry every comparison.
func (j *Job) openStreamLocked() {
	if j.updates != nil {
		return
	}
	depth := len(j.outs)
	if j.cachedResults != nil {
		depth++
	}
	j.updates = make(chan Update, depth)
	if j.cachedResults != nil {
		j.updates <- Update{Batch: -1, Batches: len(j.outs), Results: j.cachedResults}
	}
	for bi, out := range j.outs {
		if out != nil {
			j.updates <- streamUpdate(j, bi, out)
		}
	}
	if j.finished {
		close(j.updates)
	} else {
		j.streaming = true
	}
}

// finishLocked settles a job exactly once: records the outcome, closes
// the stream, drops the job from the scheduler, releases the admission
// slot and wakes everyone.
func (e *Engine) finishLocked(j *Job, rep *driver.Report, err error) {
	j.finished = true
	j.report = rep
	j.err = err
	// Stop pending backoff/deadline timers and drop queued retries; a
	// timer callback that already fired re-checks finished under the
	// lock and no-ops.
	for t := range j.timers {
		t.Stop()
	}
	j.timers = nil
	j.retryq = nil
	if j.cancel != nil {
		j.cancel() // release the job's derived context
	}
	if j.streaming {
		close(j.updates)
		j.streaming = false
	}
	close(j.doneCh)
	// Release the batched sequence payload and the input dataset: a
	// caller-retained Job handle must pin only the report and the
	// replayable outs, not the submission's working set. Executors
	// capture bp into locals under the lock before using it.
	j.bp = nil
	j.dataset = nil
	// Drop the job now rather than at the next pick: an idle engine must
	// not keep a cancelled job's dataset and partial results alive.
	e.pruneLocked()
	e.live--
	<-e.slots
	e.cond.Broadcast()
}

// RunOnce serves a single synchronous submission on a throwaway engine —
// the compatibility path behind RunOnIPU and the nil-engine backends.
// Results and report are bit-identical to driver.Run.
func RunOnce(ctx context.Context, cfg driver.Config, d *workload.Dataset) (*driver.Report, error) {
	e := New(WithDriverConfig(cfg))
	defer e.Close()
	job, err := e.Submit(ctx, d)
	if err != nil {
		return nil, err
	}
	return job.Wait(ctx)
}
