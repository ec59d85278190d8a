package ipukernel

import (
	"errors"
	"fmt"
	"sync"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/core"
)

// unit is one schedulable piece of tile work: a whole comparison, or one
// extension side of it when LR splitting is enabled.
type unit struct {
	job  int
	side int8 // 0 = both sides, 1 = left only, 2 = right only
}

const (
	sideBoth  int8 = 0
	sideLeft  int8 = 1
	sideRight int8 = 2
)

type tileResult struct {
	maxInstr     int64
	races        int
	steals       int
	cells        int64
	theo         int64
	sumBand      int64
	antidiag     int64
	skippedCells int64
	skippedJobs  int
	// Traceback accounting (zero with Config.Traceback off): peakTrace is
	// the largest single-extension direction-trace footprint any simulated
	// thread held; traceBytes sums recorded trace storage; cigarBytes is
	// the encoded CIGAR payload added to the result transfer; tracedExt
	// and skippedExt count extensions that delivered a trace vs. ones the
	// score gate skipped.
	peakTrace  int
	traceBytes int64
	cigarBytes int64
	tracedExt  int
	skippedExt int
	// err records a traceback divergence (recording not bit-matching the
	// score pass) — a kernel bug surfaced loudly instead of shipping a
	// wrong alignment. A trace-overflow (core.ErrTraceTooLarge) is not a
	// kernel bug: it degrades its one comparison to a Failed placeholder
	// instead of landing here.
	err error
}

// executor is a pool worker's reusable tile-execution state: one DP
// workspace per simulated hardware thread plus the scheduling scratch.
// Executors persist across tiles and (through execPool) across Run
// calls, so a warm tile execution performs no allocation.
type executor struct {
	ws    []core.Workspace
	instr []int64
	units []unit
	tied  []int
	// Per-job traceback scratch (sized only when Config.Traceback is on):
	// each side's sequence-forward Cigar and trace footprint, combined
	// with the seed columns once the tile's units have all run; failed
	// marks jobs whose trace recording overflowed (degraded to a Failed
	// placeholder). Under the score gate the score-pass Result and the
	// scoring thread of each side are kept so the deferred replay can
	// cross-check and charge the right thread.
	leftC, rightC   []alignment.Cigar
	leftTB, rightTB []int
	leftR, rightR   []core.Result
	leftTh, rightTh []int
	failed          []bool
}

var execPool = sync.Pool{New: func() any { return &executor{} }}

// prepare sizes the per-thread state, keeping warm workspaces.
func (ex *executor) prepare(threads int) {
	for len(ex.ws) < threads {
		ex.ws = append(ex.ws, core.Workspace{})
	}
	if cap(ex.instr) < threads {
		ex.instr = make([]int64, threads)
	}
	ex.instr = ex.instr[:threads]
	for th := range ex.instr {
		ex.instr[th] = 0
	}
	ex.units = ex.units[:0]
	ex.tied = ex.tied[:0]
}

// prepareTraces sizes and clears the per-job traceback scratch. The
// CIGAR slices are cleared through their full capacity, not just the
// new length: executors live in execPool for the process lifetime, and
// a stale tail would pin an earlier tile's alignment-length strings.
func (ex *executor) prepareTraces(jobs int) {
	grow := func(c []alignment.Cigar) []alignment.Cigar {
		if cap(c) < jobs {
			return make([]alignment.Cigar, jobs)
		}
		c = c[:cap(c)]
		clear(c)
		return c[:jobs]
	}
	growN := func(n []int) []int {
		if cap(n) < jobs {
			return make([]int, jobs)
		}
		n = n[:jobs]
		clear(n)
		return n
	}
	growR := func(r []core.Result) []core.Result {
		if cap(r) < jobs {
			return make([]core.Result, jobs)
		}
		r = r[:jobs]
		clear(r)
		return r
	}
	growB := func(b []bool) []bool {
		if cap(b) < jobs {
			return make([]bool, jobs)
		}
		b = b[:jobs]
		clear(b)
		return b
	}
	ex.leftC, ex.rightC = grow(ex.leftC), grow(ex.rightC)
	ex.leftTB, ex.rightTB = growN(ex.leftTB), growN(ex.rightTB)
	ex.leftR, ex.rightR = growR(ex.leftR), growR(ex.rightR)
	ex.leftTh, ex.rightTh = growN(ex.leftTh), growN(ex.rightTh)
	ex.failed = growB(ex.failed)
}

// runTile executes all of a tile's jobs on the configured number of
// simulated hardware threads and fills out (one slot per job, in order).
//
// Scheduling is simulated in deterministic instruction time, mirroring the
// IPU's deterministic latencies (§4.1.3): whichever thread has the lowest
// instruction counter acts next. Without work stealing, units are
// statically assigned round-robin. With work stealing, each thread starts
// on its statically assigned first unit and then steals from the shared
// list; steals by threads whose counters collide grab the same unit — a
// race that duplicates work. Eventual work stealing adds a thread-unique
// busy-wait on collision so subsequent steals diverge.
//
// With traceback gated (Config.TraceMinScore), the scheduling loop runs
// score-only and the replays of above-cutoff comparisons are deferred to
// a second phase, charged to the threads that scored the sides — the
// skipped comparisons pay nothing beyond the score pass.
func runTile(t *TileWork, cfg Config, ex *executor, out []AlignOut) tileResult {
	threads := cfg.Threads
	var tr tileResult

	for j := range t.Jobs {
		out[j].GlobalID = t.Jobs[j].GlobalID
	}

	ex.prepare(threads)
	if cfg.Traceback {
		ex.prepareTraces(len(t.Jobs))
	}
	units := ex.units
	if cfg.LRSplit {
		for j := range t.Jobs {
			units = append(units, unit{job: j, side: sideLeft}, unit{job: j, side: sideRight})
		}
	} else {
		for j := range t.Jobs {
			units = append(units, unit{job: j, side: sideBoth})
		}
	}
	ex.units = units

	instr := ex.instr

	exec := func(th int, u unit) {
		cost := runUnit(t, cfg, ex, th, u, out, &tr)
		instr[th] += cost
	}

	if !cfg.WorkStealing {
		for ui, u := range units {
			exec(ui%threads, u)
		}
	} else {
		next := 0
		// Eventual work stealing staggers threads with a thread-unique
		// busy wait so their deterministic counters rarely collide
		// (§4.1.3); plain racy stealing starts everyone in lockstep.
		if cfg.BusyWaitVariance {
			for th := 0; th < threads; th++ {
				instr[th] += stealJitter(th, -1-th)
			}
		}
		// Static initial assignment: thread th begins with unit th.
		for th := 0; th < threads && next < len(units); th++ {
			exec(th, units[next])
			next++
		}
		stealCost := int64(cfg.Cost.StealInstr + 0.5)
		for next < len(units) {
			// The thread(s) with the lowest deterministic counter
			// reach the steal swap first; exact ties race and take
			// the same unit (§4.1.3).
			low := instr[0]
			for th := 1; th < threads; th++ {
				if instr[th] < low {
					low = instr[th]
				}
			}
			tied := ex.tied[:0]
			for th := 0; th < threads; th++ {
				if instr[th] == low {
					tied = append(tied, th)
				}
			}
			ex.tied = tied
			u := units[next]
			next++
			for k, th := range tied {
				instr[th] += stealCost
				if cfg.BusyWaitVariance {
					// The thread-unique busy wait makes every
					// steal take a slightly different, iteration-
					// dependent time, so counters that once
					// collided diverge instead of staying in
					// perpetual lockstep (§4.1.3). A small
					// deterministic hash stands in for the loop's
					// timing variance.
					instr[th] += stealJitter(th, tr.steals)
				}
				exec(th, u)
				tr.steals++
				if k > 0 {
					tr.races++
				}
			}
		}
		// Every thread's final steal attempt finds the list empty.
		for th := 0; th < threads; th++ {
			instr[th] += stealCost
		}
	}

	// Deferred gated replays: with the score gate active the scheduling
	// loop recorded nothing, so replay the above-cutoff comparisons now,
	// each side on the thread that scored it. The replays append to those
	// threads' deterministic counters before the superstep maximum is
	// taken — the modeled schedule runs them after the score pass drains.
	if cfg.traceGated() && tr.err == nil {
		for j := range t.Jobs {
			if ex.failed[j] {
				continue
			}
			job := &t.Jobs[j]
			h, v := t.Seq(job.HLocal), t.Seq(job.VLocal)
			seed := core.Seed{H: job.SeedH, V: job.SeedV, Len: job.SeedLen}
			o := &out[j]
			if o.LeftScore+core.SeedScore(h, v, seed, cfg.Params)+o.RightScore < cfg.TraceMinScore {
				continue
			}
			lth := ex.leftTh[j]
			trc, err := ex.ws[lth].TracebackLeft(h, v, job.SeedH, job.SeedV, cfg.Params)
			instr[lth] += recordTrace(trc, err, &ex.leftR[j], "left", job.GlobalID,
				&ex.leftC[j], &ex.leftTB[j], &ex.failed[j], &tr, cfg)
			if ex.failed[j] || tr.err != nil {
				continue
			}
			rth := ex.rightTh[j]
			trc, err = ex.ws[rth].TracebackRight(h, v, job.SeedH+job.SeedLen, job.SeedV+job.SeedLen, cfg.Params)
			instr[rth] += recordTrace(trc, err, &ex.rightR[j], "right", job.GlobalID,
				&ex.rightC[j], &ex.rightTB[j], &ex.failed[j], &tr, cfg)
		}
	}

	for th := 0; th < threads; th++ {
		if instr[th] > tr.maxInstr {
			tr.maxInstr = instr[th]
		}
	}

	// Combine extension results (seed score bridged between them) and
	// account theoretical cells once per comparison — duplicated racy
	// executions must not inflate the GCUPS numerator (§5.1). A job with
	// Fanout > 1 stands for that many byte-identical planned comparisons;
	// the duplicates' work never reaches the device, so it is accounted
	// separately as skipped rather than folded into the executed traces.
	for j := range t.Jobs {
		job := &t.Jobs[j]
		h, v := t.Seq(job.HLocal), t.Seq(job.VLocal)
		seed := core.Seed{H: job.SeedH, V: job.SeedV, Len: job.SeedLen}
		o := &out[j]
		o.Score = o.LeftScore + core.SeedScore(h, v, seed, cfg.Params) + o.RightScore
		tr.theo += int64(len(h)) * int64(len(v))
		if f := job.Fanout; f > 1 {
			tr.skippedCells += int64(f-1) * int64(len(h)) * int64(len(v))
			tr.skippedJobs += f - 1
		}
		if !cfg.Traceback || tr.err != nil {
			continue
		}
		if ex.failed[j] {
			// The trace recording overflowed: degrade this one
			// comparison to the PR 6 placeholder (GlobalID valid,
			// everything else zero) instead of poisoning the batch.
			// AssemblePlan never caches Failed results.
			*o = AlignOut{GlobalID: o.GlobalID, Failed: true}
			continue
		}
		if cfg.TraceMinScore > 0 && o.Score < cfg.TraceMinScore {
			// Score-gated: deliver the score-only result, bit-identical
			// to a traceback-off run's.
			tr.skippedExt += 2
			continue
		}
		// Bridge the seed's own columns between the two extension
		// CIGARs (both already in sequence-forward order).
		full, err := alignment.Concat(ex.leftC[j], core.SeedCigar(h, v, seed), ex.rightC[j])
		if err != nil {
			tr.err = fmt.Errorf("ipukernel: comparison %d cigar: %w", job.GlobalID, err)
			continue
		}
		o.Cigar = full
		o.TraceBytes = ex.leftTB[j] + ex.rightTB[j]
		tr.traceBytes += int64(o.TraceBytes)
		tr.cigarBytes += int64(full.WireBytes())
		tr.tracedExt += 2
	}
	return tr
}

// stealJitter is the deterministic per-steal busy-wait duration: a small
// hash of the thread id and steal ordinal standing in for the busy-wait
// loop's timing variance (1–1024 instruction bundles, ≈ at most 4.6 µs of
// thread time — "small" in the paper's sense, §4.1.3, yet wide enough
// that counter collisions become as rare as the paper's 18 per 1.13 M
// alignments).
func stealJitter(th, n int) int64 {
	x := uint64(th+1)*0x9e3779b97f4a7c15 + uint64(n)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	return int64(x>>54) + 1
}

// runUnit executes one unit's extension(s), records results and traces,
// and returns the charged instruction cost. With Config.Traceback each
// side either fuses direction recording into the scoring pass (one sweep)
// or re-runs the fused kernel after it (the deferred replay, charged
// like another DP sweep); with the score gate active it only remembers
// which thread scored the side, for the deferred replay phase. A
// recording must bit-match the score pass or the tile fails loudly.
func runUnit(t *TileWork, cfg Config, ex *executor, th int, u unit, out []AlignOut, tr *tileResult) int64 {
	job := &t.Jobs[u.job]
	h, v := t.Seq(job.HLocal), t.Seq(job.VLocal)
	o := &out[u.job]
	ws := &ex.ws[th]

	var cost int64
	doLeft := u.side == sideBoth || u.side == sideLeft
	doRight := u.side == sideBoth || u.side == sideRight
	gated := cfg.traceGated()

	if doLeft {
		if cfg.Traceback && !gated && cfg.fusedExtension(job.SeedH, job.SeedV) {
			r, trc, err := ws.FusedExtendLeft(h, v, job.SeedH, job.SeedV, cfg.Params)
			if err != nil {
				failTrace(err, &ex.failed[u.job], tr)
			} else {
				o.LeftScore = r.Score
				o.BegH = job.SeedH - r.EndH
				o.BegV = job.SeedV - r.EndV
				cost += instrCost(cfg, r.Stats)
				accumulate(o, tr, r.Stats)
				storeTrace(trc, &ex.leftC[u.job], &ex.leftTB[u.job], tr)
			}
		} else {
			r := ws.ExtendLeft(h, v, job.SeedH, job.SeedV, cfg.Params)
			o.LeftScore = r.Score
			o.BegH = job.SeedH - r.EndH
			o.BegV = job.SeedV - r.EndV
			cost += instrCost(cfg, r.Stats)
			accumulate(o, tr, r.Stats)
			if cfg.Traceback {
				if gated {
					ex.leftR[u.job], ex.leftTh[u.job] = r, th
				} else {
					trc, err := ws.TracebackLeft(h, v, job.SeedH, job.SeedV, cfg.Params)
					cost += recordTrace(trc, err, &r, "left", job.GlobalID,
						&ex.leftC[u.job], &ex.leftTB[u.job], &ex.failed[u.job], tr, cfg)
				}
			}
		}
	}
	if doRight {
		rh := len(h) - job.SeedH - job.SeedLen
		rv := len(v) - job.SeedV - job.SeedLen
		if cfg.Traceback && !gated && cfg.fusedExtension(rh, rv) {
			r, trc, err := ws.FusedExtendRight(h, v, job.SeedH+job.SeedLen, job.SeedV+job.SeedLen, cfg.Params)
			if err != nil {
				failTrace(err, &ex.failed[u.job], tr)
			} else {
				o.RightScore = r.Score
				o.EndH = job.SeedH + job.SeedLen + r.EndH
				o.EndV = job.SeedV + job.SeedLen + r.EndV
				cost += instrCost(cfg, r.Stats)
				accumulate(o, tr, r.Stats)
				storeTrace(trc, &ex.rightC[u.job], &ex.rightTB[u.job], tr)
			}
		} else {
			r := ws.ExtendRight(h, v, job.SeedH+job.SeedLen, job.SeedV+job.SeedLen, cfg.Params)
			o.RightScore = r.Score
			o.EndH = job.SeedH + job.SeedLen + r.EndH
			o.EndV = job.SeedV + job.SeedLen + r.EndV
			cost += instrCost(cfg, r.Stats)
			accumulate(o, tr, r.Stats)
			if cfg.Traceback {
				if gated {
					ex.rightR[u.job], ex.rightTh[u.job] = r, th
				} else {
					trc, err := ws.TracebackRight(h, v, job.SeedH+job.SeedLen, job.SeedV+job.SeedLen, cfg.Params)
					cost += recordTrace(trc, err, &r, "right", job.GlobalID,
						&ex.rightC[u.job], &ex.rightTB[u.job], &ex.failed[u.job], tr, cfg)
				}
			}
		}
	}
	return cost
}

// failTrace routes a recording error: a trace overflow degrades its one
// comparison (Failed placeholder), anything else is a kernel bug and
// fails the batch loudly.
func failTrace(err error, failed *bool, tr *tileResult) {
	if errors.Is(err, core.ErrTraceTooLarge) {
		*failed = true
		return
	}
	if tr.err == nil {
		tr.err = err
	}
}

// recordTrace cross-checks one side's traceback replay against the
// score-pass result and stores the side's CIGAR and trace footprint in
// the executor scratch. It returns the extra instruction cost charged
// for the replay (one more DP sweep), or 0 on failure — a trace overflow
// degrades the one comparison via failed, while a divergence or corrupt
// trace lands in tr.err and fails the batch loudly rather than shipping
// a wrong alignment.
func recordTrace(trc core.Trace, err error, r *core.Result, side string, id int,
	cigar *alignment.Cigar, traceBytes *int, failed *bool, tr *tileResult, cfg Config) int64 {
	if err == nil && (trc.Score != r.Score || trc.EndH != r.EndH || trc.EndV != r.EndV) {
		err = fmt.Errorf("ipukernel: %s traceback of comparison %d diverged: replay (%d,%d,%d) vs kernel (%d,%d,%d)",
			side, id, trc.Score, trc.EndH, trc.EndV, r.Score, r.EndH, r.EndV)
	}
	if err != nil {
		failTrace(err, failed, tr)
		return 0
	}
	*cigar = trc.Cigar
	*traceBytes = trc.TraceBytes
	if trc.TraceBytes > tr.peakTrace {
		tr.peakTrace = trc.TraceBytes
	}
	return instrCost(cfg, r.Stats)
}

// storeTrace records a fused recording's CIGAR and trace footprint (the
// fused kernel already cross-checked itself: its Result and Trace come
// from the same sweep).
func storeTrace(trc core.Trace, cigar *alignment.Cigar, traceBytes *int, tr *tileResult) {
	*cigar = trc.Cigar
	*traceBytes = trc.TraceBytes
	if trc.TraceBytes > tr.peakTrace {
		tr.peakTrace = trc.TraceBytes
	}
}

func accumulate(o *AlignOut, tr *tileResult, s core.Stats) {
	o.Cells += s.Cells
	o.Antidiagonals += s.Antidiagonals
	if s.MaxLiveBand > o.MaxLiveBand {
		o.MaxLiveBand = s.MaxLiveBand
	}
	o.Clamped = o.Clamped || s.Clamped
	tr.cells += s.Cells
	tr.sumBand += s.SumComputedBand
	tr.antidiag += int64(s.Antidiagonals)
}

// instrCost converts an extension trace into thread-instruction bundles
// under the calibrated cost model, applying the dual-issue speedup last.
func instrCost(cfg Config, s core.Stats) int64 {
	c := cfg.Cost
	raw := c.InstrPerAlignment +
		float64(s.Antidiagonals)*c.InstrPerIteration +
		float64(s.Cells)*c.InstrPerCell
	if cfg.DualIssue {
		raw /= c.DualIssueSpeedup
	}
	return int64(raw + 0.5)
}
