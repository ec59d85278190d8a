package core

// Fused single-pass traceback: the scoring sweep records 2/4-bit
// direction codes as it goes. These are the only recording kernels —
// every Traceback* entry point runs them. The loops are structured like
// the score kernels (NegInf-padded rotating buffers, resolved byte-row
// slices, peeled boundaries, fringe-scan liveness recovery, statAcc
// counters) so recording costs roughly one sweep, and the returned
// Result is bit-identical to the score kernels' in every field,
// including the trace counters; the recorded directions (and therefore
// the CIGAR) are pinned against the tests' cell-by-cell replay oracle.
//
// Inline eligibility (FusedEligible): every recurrence with a fused
// kernel — the linear and affine int32 kernels. AlgoReference is scored
// by its full-matrix oracle and records with the fused kernel after its
// score pass. The memory trade is explicit: an inline recording lives on
// its thread for the whole scoring pass, so the SRAM model charges one
// direction arena per thread (ipukernel.TileMemoryBytes) instead of the
// single serialized replay arena.

// TraceMode selects when traceback direction data is recorded. The host
// always records with the fused kernel; the mode only decides whether a
// recording happens inline, during the scoring pass (the SRAM model
// charges one direction arena per thread), or deferred, after the tile's
// score pass, serially on the single replay arena the model charges.
type TraceMode int

const (
	// TraceModeAuto records inline for eligible extensions whose
	// direction-arena bound fits the per-thread fused budget, and defers
	// the rest. The default.
	TraceModeAuto TraceMode = iota
	// TraceModeReplay defers every recording to after the score pass
	// and charges the serialized replay arena.
	TraceModeReplay
	// TraceModeFused records every eligible extension inline regardless
	// of the budget heuristic; SRAM admission still certifies the tile.
	TraceModeFused
)

// String names the mode for flags, config echoes and fingerprint dumps.
func (m TraceMode) String() string {
	switch m {
	case TraceModeReplay:
		return "replay"
	case TraceModeFused:
		return "fused"
	default:
		return "auto"
	}
}

// FusedEligible reports whether an extension under p can record
// inline, the fused Result standing in for its score pass: every variant
// but the Reference oracle, which is scored by its own full-matrix
// kernel and records afterwards.
func FusedEligible(p Params) bool { return p.Algo != AlgoReference }

// fusedExtend dispatches the fused kernels, leaving the walk-order ops
// in w.tb.ops.
func (w *Workspace) fusedExtend(h, v View, p Params) (Result, Trace, error) {
	if err := p.Validate(); err != nil {
		return Result{}, Trace{}, err
	}
	if p.Algo == AlgoAffine {
		return w.fusedAffine(h, v, p)
	}
	return w.fusedLinear(h, v, p)
}

// FusedExtendRight runs the right seed extension (ExtendRight geometry)
// with fused direction recording: the Result bit-matches ExtendRight and
// the Trace is TracebackRight's (Cigar in sequence-forward order).
func (w *Workspace) FusedExtendRight(h, v []byte, hOff, vOff int, p Params) (Result, Trace, error) {
	return w.recordExtension(NewView(h[hOff:]), NewView(v[vOff:]), p, true)
}

// FusedExtendLeft is FusedExtendRight for the left seed extension
// (ExtendLeft geometry, reversed views; Cigar in sequence-forward
// order, matching TracebackLeft).
func (w *Workspace) FusedExtendLeft(h, v []byte, hOff, vOff int, p Params) (Result, Trace, error) {
	return w.recordExtension(NewReversedView(h[:hOff]), NewReversedView(v[:vOff]), p, false)
}

// fusedLinear is the fused linear-gap kernel (Restricted2 / Standard3 /
// Reference semantics, selected by p.Algo exactly like linearCapacity).
// The loop body mirrors Restricted2's padded-window sweep with the
// per-cell code assignment folded in; the rotation uses three distinct
// buffers (like Standard3) so the recording loop needs no in-place
// aliasing carry.
func (w *Workspace) fusedLinear(h, v View, p Params) (Result, Trace, error) {
	m, n := h.Len(), v.Len()
	delta := min(m, n) + 1
	capacity := linearCapacity(m, n, p)
	w.b0 = growBuf32(w.b0, capacity)
	w.b1 = growBuf32(w.b1, capacity)
	w.b2 = growBuf32(w.b2, capacity)
	tb := &w.tb
	tb.reset(2)

	res := Result{Stats: Stats{TheoreticalCells: int64(m) * int64(n)}}
	if p.Algo == AlgoStandard3 {
		res.Stats.WorkBytes = 3 * delta * ScoreBytes
	} else {
		res.Stats.WorkBytes = 2 * capacity * ScoreBytes
	}

	tab := p.Scorer.Table()
	gap := int32(p.Gap)
	hb, vb := h.data, v.data
	hStep, hOrg := h.dir()
	vStep, vD, vOrg := v.vdir()

	out, d1b, d2b := w.b0, w.b1, w.b2
	seedDiag(d1b, 0)
	seedDiag(d2b, negInf32)
	d1cl, d1lo, d1hi := 0, 0, 0
	d2cl := 0

	var acc statAcc
	acc.observe(1, 1)

	var trc Trace
	base := tb.beginDiag(0, 1)
	tb.setCode(base, 0, codeNone)

	best, t := int32(0), int32(0)
	bestI, bestD := 0, 0
	rowBestI := 0

	for d := 1; d <= m+n; d++ {
		cl := max(d1lo, max(0, d-n))
		cu := min(d1hi+1, min(d, m))
		if cl > cu {
			break
		}
		if cu-cl+1 > capacity {
			// The δb clamp, re-centred on the previous antidiagonal's
			// best cell — identical to Restricted2's realignment rule.
			res.Stats.Clamped = true
			ncl := rowBestI - capacity/2
			if ncl < cl {
				ncl = cl
			}
			if ncl > cu-capacity+1 {
				ncl = cu - capacity + 1
			}
			cl = ncl
			cu = cl + capacity - 1
		}

		limit := pruneLimit(t, p.X)
		width := cu - cl + 1
		dbase := tb.beginDiag(cl, width)
		if dbase < 0 {
			return Result{}, Trace{}, ErrTraceTooLarge
		}
		codes := tb.growCodes(width)
		rowBest := negInf32
		o1 := bufPad - d1cl
		o2 := bufPad - d2cl
		oo := bufPad - cl

		i := cl
		if i == 0 {
			// Top boundary (j = d): only the left (gap-in-H) move.
			s := d1b[o1] + gap
			c := codeLeft
			if s < limit {
				s, c = negInf32, codeNone
			}
			if s > rowBest {
				rowBest = s
			}
			out[oo] = s
			codes[0] = c
			i = 1
		}
		iB := cu
		peelDiag := cu == d // bottom boundary cell (j = 0) exists
		if peelDiag {
			iB = cu - 1
		}
		if cnt := iB - i + 1; cnt > 0 {
			kbase := i
			outRow := out[kbase+oo:][:cnt]
			codeRow := codes[kbase-cl:][:cnt]
			d2v := d2b[kbase-1+o2:][:cnt]
			d1r := d1b[kbase+o1:][:cnt]
			dlv := d1b[kbase-1+o1]
			switch {
			case !h.rev && !v.rev:
				hRow := hb[kbase-1:][:cnt]
				vRow := vb[d-kbase-cnt:][:cnt]
				for k := range outRow {
					s := d2v[k] + int32(tab[hRow[k]][vRow[cnt-1-k]])
					c := codeDiag
					drv := d1r[k]
					// The kernels take the gap branch only when it
					// strictly beats the diagonal; between the two gap
					// sources up wins ties.
					if g := max(dlv, drv) + gap; g > s {
						s = g
						if dlv >= drv {
							c = codeUp
						} else {
							c = codeLeft
						}
					}
					dlv = drv
					if s < limit {
						s, c = negInf32, codeNone
					}
					if s > rowBest {
						rowBest = s
					}
					outRow[k] = s
					codeRow[k] = c
				}
			case h.rev && v.rev:
				hRow := hb[m-kbase-cnt+1:][:cnt]
				vRow := vb[n-d+kbase:][:cnt]
				for k := range outRow {
					s := d2v[k] + int32(tab[hRow[cnt-1-k]][vRow[k]])
					c := codeDiag
					drv := d1r[k]
					if g := max(dlv, drv) + gap; g > s {
						s = g
						if dlv >= drv {
							c = codeUp
						} else {
							c = codeLeft
						}
					}
					dlv = drv
					if s < limit {
						s, c = negInf32, codeNone
					}
					if s > rowBest {
						rowBest = s
					}
					outRow[k] = s
					codeRow[k] = c
				}
			default:
				// Mixed-direction views (never produced by the seed
				// extension paths): generic index cursors.
				hIdx := hOrg + hStep*kbase
				vIdx := vOrg + vD*d + vStep*kbase
				for k := range outRow {
					s := d2v[k] + int32(tab[hb[hIdx]][vb[vIdx]])
					hIdx += hStep
					vIdx += vStep
					c := codeDiag
					drv := d1r[k]
					if g := max(dlv, drv) + gap; g > s {
						s = g
						if dlv >= drv {
							c = codeUp
						} else {
							c = codeLeft
						}
					}
					dlv = drv
					if s < limit {
						s, c = negInf32, codeNone
					}
					if s > rowBest {
						rowBest = s
					}
					outRow[k] = s
					codeRow[k] = c
				}
			}
			i = iB + 1
		}
		if peelDiag {
			// Bottom boundary (j = 0): only the up (gap-in-V) move.
			s := d1b[i-1+o1] + gap
			c := codeUp
			if s < limit {
				s, c = negInf32, codeNone
			}
			if s > rowBest {
				rowBest = s
			}
			out[i+oo] = s
			codes[i-cl] = c
		}
		setGuards(out, width)
		tb.packRow(dbase, codes)

		// Recover the live sub-window and the row argmax from the
		// stored row, exactly like the score kernels (the equality scan
		// stops at the first argmax — first-wins tie-breaking).
		row := out[bufPad:][:width]
		lo, hi := -1, -1
		for k := 0; k < width; k++ {
			if row[k] != negInf32 {
				lo = cl + k
				break
			}
		}
		rowBestI = -1
		if lo >= 0 {
			for k := width - 1; ; k-- {
				if row[k] != negInf32 {
					hi = cl + k
					break
				}
			}
			for k := lo - cl; ; k++ {
				if row[k] == rowBest {
					rowBestI = cl + k
					break
				}
			}
		}

		liveW := 0
		if lo >= 0 {
			liveW = hi - lo + 1
		}
		acc.observe(width, liveW)
		if lo < 0 {
			break
		}
		if rowBest > best {
			best, bestI, bestD = rowBest, rowBestI, d
		}
		if rowBest > t {
			t = rowBest
		}
		out, d1b, d2b = d2b, out, d1b
		d2cl = d1cl
		d1cl, d1lo, d1hi = cl, lo, hi
	}
	w.b0, w.b1, w.b2 = out, d1b, d2b

	acc.flush(&res.Stats)
	res.Score = int(best)
	res.EndH = bestI
	res.EndV = bestD - bestI
	trc.Score, trc.EndH, trc.EndV = res.Score, res.EndH, res.EndV
	trc.Clamped = res.Stats.Clamped
	trc.TraceBytes = tb.traceBytes()
	if err := tb.walkLinear(h, v, bestI, bestD); err != nil {
		return Result{}, Trace{}, err
	}
	return res, trc, nil
}

// fusedAffine is the fused Gotoh affine-gap kernel: Affine's padded
// three-channel sweep with the 4-bit nibble assignment (H source in the
// low 2 bits, E/F gap-extension flags above) folded into the scoring
// loop.
func (w *Workspace) fusedAffine(h, v View, p Params) (Result, Trace, error) {
	m, n := h.Len(), v.Len()
	delta := min(m, n) + 1
	w.b0 = growBuf32(w.b0, delta)
	w.b1 = growBuf32(w.b1, delta)
	w.b2 = growBuf32(w.b2, delta)
	w.e0 = growBuf32(w.e0, delta)
	w.e1 = growBuf32(w.e1, delta)
	w.f0 = growBuf32(w.f0, delta)
	w.f1 = growBuf32(w.f1, delta)
	tb := &w.tb
	tb.reset(4)

	res := Result{Stats: Stats{
		TheoreticalCells: int64(m) * int64(n),
		WorkBytes:        7 * delta * ScoreBytes,
	}}

	tab := p.Scorer.Table()
	gape := int32(p.Gap)
	gapo := int32(p.GapOpen)
	goe := gapo + gape
	hb, vb := h.data, v.data
	hStep, hOrg := h.dir()
	vStep, vD, vOrg := v.vdir()

	d1h, d1e, d1f := w.b1, w.e1, w.f1
	d2h := w.b2
	outH, outE, outF := w.b0, w.e0, w.f0
	seedDiag(d1h, 0)
	seedDiag(d1e, negInf32)
	seedDiag(d1f, negInf32)
	seedDiag(d2h, negInf32)
	d1cl, d1lo, d1hi := 0, 0, 0
	d2cl := 0

	var acc statAcc
	acc.observe(1, 1)

	var trc Trace
	base := tb.beginDiag(0, 1)
	tb.setCode(base, 0, codeNone)

	best, t := int32(0), int32(0)
	bestI, bestD := 0, 0

	for d := 1; d <= m+n; d++ {
		cl := max(d1lo, max(0, d-n))
		cu := min(d1hi+1, min(d, m))
		if cl > cu {
			break
		}
		limit := pruneLimit(t, p.X)
		width := cu - cl + 1
		dbase := tb.beginDiag(cl, width)
		if dbase < 0 {
			return Result{}, Trace{}, ErrTraceTooLarge
		}
		codes := tb.growCodes(width)
		o1 := bufPad - d1cl
		o2 := bufPad - d2cl
		oo := bufPad - cl

		i := cl
		if i == 0 {
			// Top boundary (j = d): only the E channel exists, and it
			// is also the cell's H value.
			pe := d1e[o1]
			ph := d1h[o1]
			e := max(pe+gape, ph+goe)
			var c byte
			if pe+gape >= ph+goe {
				c |= afEExt
			}
			if e < limit {
				e = negInf32
			} else {
				c |= afSrcE
			}
			outH[oo], outE[oo], outF[oo] = e, e, negInf32
			codes[0] = c
			i = 1
		}
		iB := cu
		peelDiag := cu == d // bottom boundary cell (j = 0) exists
		if peelDiag {
			iB = cu - 1
		}
		if cnt := iB - i + 1; cnt > 0 {
			kbase := i
			ohRow := outH[kbase+oo:][:cnt]
			oeRow := outE[kbase+oo:][:cnt]
			ofRow := outF[kbase+oo:][:cnt]
			codeRow := codes[kbase-cl:][:cnt]
			d2v := d2h[kbase-1+o2:][:cnt]
			d1hr := d1h[kbase+o1:][:cnt]
			d1er := d1e[kbase+o1:][:cnt]
			d1fr := d1f[kbase+o1:][:cnt]
			hlv := d1h[kbase-1+o1]
			flv := d1f[kbase-1+o1]
			switch {
			case !h.rev && !v.rev:
				hRow := hb[kbase-1:][:cnt]
				vRow := vb[d-kbase-cnt:][:cnt]
				for k := range ohRow {
					hrv := d1hr[k]
					erv := d1er[k]
					e := max(erv+gape, hrv+goe)
					var c byte
					if erv+gape >= hrv+goe {
						c = afEExt
					}
					f := max(flv+gape, hlv+goe)
					if flv+gape >= hlv+goe {
						c |= afFExt
					}
					flv = d1fr[k]
					s := d2v[k] + int32(tab[hRow[k]][vRow[cnt-1-k]])
					hlv = hrv
					src := afSrcDiag
					if e > s {
						s = e
						src = afSrcE
					}
					if f > s {
						s = f
						src = afSrcF
					}
					if s < limit {
						s = negInf32
						src = 0
					}
					if e < limit {
						e = negInf32
					}
					if f < limit {
						f = negInf32
					}
					ohRow[k], oeRow[k], ofRow[k] = s, e, f
					codeRow[k] = c | src
				}
			case h.rev && v.rev:
				hRow := hb[m-kbase-cnt+1:][:cnt]
				vRow := vb[n-d+kbase:][:cnt]
				for k := range ohRow {
					hrv := d1hr[k]
					erv := d1er[k]
					e := max(erv+gape, hrv+goe)
					var c byte
					if erv+gape >= hrv+goe {
						c = afEExt
					}
					f := max(flv+gape, hlv+goe)
					if flv+gape >= hlv+goe {
						c |= afFExt
					}
					flv = d1fr[k]
					s := d2v[k] + int32(tab[hRow[cnt-1-k]][vRow[k]])
					hlv = hrv
					src := afSrcDiag
					if e > s {
						s = e
						src = afSrcE
					}
					if f > s {
						s = f
						src = afSrcF
					}
					if s < limit {
						s = negInf32
						src = 0
					}
					if e < limit {
						e = negInf32
					}
					if f < limit {
						f = negInf32
					}
					ohRow[k], oeRow[k], ofRow[k] = s, e, f
					codeRow[k] = c | src
				}
			default:
				hIdx := hOrg + hStep*kbase
				vIdx := vOrg + vD*d + vStep*kbase
				for k := range ohRow {
					hrv := d1hr[k]
					erv := d1er[k]
					e := max(erv+gape, hrv+goe)
					var c byte
					if erv+gape >= hrv+goe {
						c = afEExt
					}
					f := max(flv+gape, hlv+goe)
					if flv+gape >= hlv+goe {
						c |= afFExt
					}
					flv = d1fr[k]
					s := d2v[k] + int32(tab[hb[hIdx]][vb[vIdx]])
					hIdx += hStep
					vIdx += vStep
					hlv = hrv
					src := afSrcDiag
					if e > s {
						s = e
						src = afSrcE
					}
					if f > s {
						s = f
						src = afSrcF
					}
					if s < limit {
						s = negInf32
						src = 0
					}
					if e < limit {
						e = negInf32
					}
					if f < limit {
						f = negInf32
					}
					ohRow[k], oeRow[k], ofRow[k] = s, e, f
					codeRow[k] = c | src
				}
			}
			i = iB + 1
		}
		if peelDiag {
			// Bottom boundary (j = 0): only the F channel exists, and
			// it is also the cell's H value.
			pf := d1f[i-1+o1]
			ph := d1h[i-1+o1]
			f := max(pf+gape, ph+goe)
			var c byte
			if pf+gape >= ph+goe {
				c |= afFExt
			}
			if f < limit {
				f = negInf32
			} else {
				c |= afSrcF
			}
			k := i + oo
			outH[k], outE[k], outF[k] = f, negInf32, f
			codes[i-cl] = c
		}
		setGuards(outH, width)
		setGuards(outE, width)
		setGuards(outF, width)
		tb.packRow(dbase, codes)

		rowH := outH[bufPad:][:width]
		rowE := outE[bufPad:][:width]
		rowF := outF[bufPad:][:width]
		lo, hi := -1, -1
		for k := 0; k < width; k++ {
			if rowH[k] != negInf32 || rowE[k] != negInf32 || rowF[k] != negInf32 {
				lo = cl + k
				break
			}
		}
		rowBest, rowBestI := negInf32, -1
		if lo >= 0 {
			for k := width - 1; ; k-- {
				if rowH[k] != negInf32 || rowE[k] != negInf32 || rowF[k] != negInf32 {
					hi = cl + k
					break
				}
			}
			for k := lo - cl; k <= hi-cl; k++ {
				if s := rowH[k]; s > rowBest {
					rowBest, rowBestI = s, cl+k
				}
			}
		}

		liveW := 0
		if lo >= 0 {
			liveW = hi - lo + 1
		}
		acc.observe(width, liveW)
		if lo < 0 {
			break
		}
		if rowBest > best {
			best, bestI, bestD = rowBest, rowBestI, d
		}
		if rowBest > t {
			t = rowBest
		}
		d2h, d1h, outH = d1h, outH, d2h
		d1e, outE = outE, d1e
		d1f, outF = outF, d1f
		d2cl = d1cl
		d1cl, d1lo, d1hi = cl, lo, hi
	}
	w.b0, w.b1, w.b2 = outH, d1h, d2h
	w.e0, w.e1, w.f0, w.f1 = outE, d1e, outF, d1f

	acc.flush(&res.Stats)
	res.Score = int(best)
	res.EndH = bestI
	res.EndV = bestD - bestI
	trc.Score, trc.EndH, trc.EndV = res.Score, res.EndH, res.EndV
	trc.Clamped = res.Stats.Clamped
	trc.TraceBytes = tb.traceBytes()
	if err := tb.walkAffine(h, v, bestI, bestD); err != nil {
		return Result{}, Trace{}, err
	}
	return res, trc, nil
}
