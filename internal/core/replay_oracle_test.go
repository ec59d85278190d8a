package core

// The two-pass replay tracers, kept as the test-side reference oracle
// for the fused recording kernels (fused.go). Each replays one extension
// cell by cell with plain window bookkeeping — no padded buffers, no
// peeled loops, no fringe scans — and records the same direction codes
// into the workspace's tracer, so every production Trace can be compared
// field for field against an independent implementation of the same
// window semantics. The rotating rows are allocated per replay: the
// oracle favours obviousness over reuse.

// replayTrace replays one extension with direction recording and
// returns its Trace, Cigar included (view-forward order when rev is set,
// walk order otherwise) — the oracle twin of TracebackExtension.
func (w *Workspace) replayTrace(h, v View, p Params, rev bool) (Trace, error) {
	if err := p.Validate(); err != nil {
		return Trace{}, err
	}
	var tr Trace
	var err error
	if p.Algo == AlgoAffine {
		tr, err = w.traceAffine(h, v, p)
	} else {
		tr, err = w.traceLinear(h, v, p)
	}
	if err != nil {
		w.tb.trim()
		return Trace{}, err
	}
	tr.Cigar = encodeOps(w.tb.ops, rev)
	w.tb.trim()
	return tr, nil
}

// replayRight is the oracle twin of TracebackRight.
func (w *Workspace) replayRight(h, v []byte, hOff, vOff int, p Params) (Trace, error) {
	return w.replayTrace(NewView(h[hOff:]), NewView(v[vOff:]), p, true)
}

// replayLeft is the oracle twin of TracebackLeft (Cigar in
// sequence-forward order).
func (w *Workspace) replayLeft(h, v []byte, hOff, vOff int, p Params) (Trace, error) {
	return w.replayTrace(NewReversedView(h[:hOff]), NewReversedView(v[:vOff]), p, false)
}

func grow32(b []int32, n int) []int32 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]int32, n)
}

// get32 reads row value i from a window [cl, cu]; outside reads answer
// −∞, exactly like the score kernels' guard cells.
func get32(vals []int32, cl, cu, i int) int32 {
	if i < cl || i > cu {
		return negInf32
	}
	return vals[i-cl]
}

// traceLinear replays a linear-gap extension (Restricted2 / Standard3 /
// Reference semantics) with direction recording and returns the walk-order
// ops (best cell back to the origin) in tb.ops.
func (w *Workspace) traceLinear(h, v View, p Params) (Trace, error) {
	m, n := h.Len(), v.Len()
	capacity := linearCapacity(m, n, p)
	tb := &w.tb
	tb.reset(2)
	var rowA, rowB, rowC []int32

	tab := p.Scorer.Table()
	gap := int32(p.Gap)

	d1 := grow32(rowB, 1)
	d1[0] = 0
	d1cl, d1cu := 0, 0 // computed window of antidiagonal d-1
	d1lo, d1hi := 0, 0 // live bounds of antidiagonal d-1
	d2 := rowC[:0]
	d2cl, d2cu := 0, -1 // antidiagonal d-2 starts empty (all −∞)
	spare := rowA

	var res Trace
	base := tb.beginDiag(0, 1)
	tb.setCode(base, 0, codeNone) // the origin

	best, t := int32(0), int32(0)
	bestI, bestD := 0, 0
	prevBestI := 0

	for d := 1; d <= m+n; d++ {
		cl := max(d1lo, max(0, d-n))
		cu := min(d1hi+1, min(d, m))
		if cl > cu {
			break
		}
		if cu-cl+1 > capacity {
			// The δb clamp, re-centred on the previous antidiagonal's
			// best cell — identical to Restricted2's realignment rule.
			res.Clamped = true
			ncl := prevBestI - capacity/2
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
		out := grow32(spare, width)
		rowBest, rowBestI := negInf32, -1
		lo, hi := -1, -1
		base := tb.beginDiag(cl, width)
		if base < 0 {
			return Trace{}, ErrTraceTooLarge
		}
		for i := cl; i <= cu; i++ {
			j := d - i
			var s int32
			var code byte
			switch {
			case i == 0:
				// Top boundary (j = d): only the left (gap-in-H) move.
				s = get32(d1, d1cl, d1cu, 0) + gap
				code = codeLeft
			case j == 0:
				// Bottom boundary: only the up (gap-in-V) move.
				s = get32(d1, d1cl, d1cu, i-1) + gap
				code = codeUp
			default:
				s = get32(d2, d2cl, d2cu, i-1) + int32(tab[h.At(i-1)][v.At(j-1)])
				code = codeDiag
				up := get32(d1, d1cl, d1cu, i-1)
				left := get32(d1, d1cl, d1cu, i)
				// The kernels take the gap branch only when it strictly
				// beats the diagonal; between the two gap sources the
				// value is what matters, up wins ties here.
				if g := max(up, left) + gap; g > s {
					s = g
					if up >= left {
						code = codeUp
					} else {
						code = codeLeft
					}
				}
			}
			if s < limit {
				s, code = negInf32, codeNone
			} else {
				if lo < 0 {
					lo = i
				}
				hi = i
			}
			if s > rowBest {
				rowBest, rowBestI = s, i
			}
			out[i-cl] = s
			tb.setCode(base, i-cl, code)
		}
		if lo < 0 {
			break
		}
		if rowBest > best {
			best, bestI, bestD = rowBest, rowBestI, d
		}
		if rowBest > t {
			t = rowBest
		}
		spare = d2
		d2, d2cl, d2cu = d1, d1cl, d1cu
		d1, d1cl, d1cu = out, cl, cu
		d1lo, d1hi = lo, hi
		prevBestI = rowBestI
	}

	res.Score = int(best)
	res.EndH = bestI
	res.EndV = bestD - bestI
	res.TraceBytes = tb.traceBytes()
	if err := tb.walkLinear(h, v, bestI, bestD); err != nil {
		return Trace{}, err
	}
	return res, nil
}

// traceAffine replays the Gotoh affine-gap extension with direction
// recording (4 bits per cell) and leaves the walk-order ops in tb.ops.
func (w *Workspace) traceAffine(h, v View, p Params) (Trace, error) {
	m, n := h.Len(), v.Len()
	tb := &w.tb
	tb.reset(4)
	var rowA, rowB, rowC, e0, e1, f0, f1 []int32

	tab := p.Scorer.Table()
	gape := int32(p.Gap)
	gapo := int32(p.GapOpen)

	d1h := grow32(rowB, 1)
	d1e := grow32(e1, 1)
	d1f := grow32(f1, 1)
	d1h[0], d1e[0], d1f[0] = 0, negInf32, negInf32
	d1cl, d1cu := 0, 0
	d1lo, d1hi := 0, 0
	d2h := rowC[:0]
	d2cl, d2cu := 0, -1
	spareH, spareE, spareF := rowA, e0, f0

	var res Trace
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
		outH := grow32(spareH, width)
		outE := grow32(spareE, width)
		outF := grow32(spareF, width)
		rowBest, rowBestI := negInf32, -1
		lo, hi := -1, -1
		base := tb.beginDiag(cl, width)
		if base < 0 {
			return Trace{}, ErrTraceTooLarge
		}
		for i := cl; i <= cu; i++ {
			j := d - i
			var hs, es, fs int32
			var code byte
			switch {
			case i == 0:
				// Top boundary: the cell is its own E channel.
				pe := get32(d1e, d1cl, d1cu, 0)
				ph := get32(d1h, d1cl, d1cu, 0)
				es = max(pe, ph+gapo) + gape
				if pe >= ph+gapo {
					code |= afEExt
				}
				if es < limit {
					es = negInf32
				}
				hs, fs = es, negInf32
				if es != negInf32 {
					code |= afSrcE
				}
			case j == 0:
				// Bottom boundary: the cell is its own F channel.
				pf := get32(d1f, d1cl, d1cu, i-1)
				ph := get32(d1h, d1cl, d1cu, i-1)
				fs = max(pf, ph+gapo) + gape
				if pf >= ph+gapo {
					code |= afFExt
				}
				if fs < limit {
					fs = negInf32
				}
				hs, es = fs, negInf32
				if fs != negInf32 {
					code |= afSrcF
				}
			default:
				pe := get32(d1e, d1cl, d1cu, i)
				phr := get32(d1h, d1cl, d1cu, i)
				es = max(pe, phr+gapo) + gape
				if pe >= phr+gapo {
					code |= afEExt
				}
				pf := get32(d1f, d1cl, d1cu, i-1)
				phl := get32(d1h, d1cl, d1cu, i-1)
				fs = max(pf, phl+gapo) + gape
				if pf >= phl+gapo {
					code |= afFExt
				}
				hs = get32(d2h, d2cl, d2cu, i-1) + int32(tab[h.At(i-1)][v.At(j-1)])
				src := afSrcDiag
				if es > hs {
					hs = es
					src = afSrcE
				}
				if fs > hs {
					hs = fs
					src = afSrcF
				}
				if hs < limit {
					hs = negInf32
					src = 0
				}
				if es < limit {
					es = negInf32
				}
				if fs < limit {
					fs = negInf32
				}
				code |= src
			}
			if hs != negInf32 || es != negInf32 || fs != negInf32 {
				if lo < 0 {
					lo = i
				}
				hi = i
			}
			if hs > rowBest {
				rowBest, rowBestI = hs, i
			}
			outH[i-cl], outE[i-cl], outF[i-cl] = hs, es, fs
			tb.setCode(base, i-cl, code)
		}
		if lo < 0 {
			break
		}
		if rowBest > best {
			best, bestI, bestD = rowBest, rowBestI, d
		}
		if rowBest > t {
			t = rowBest
		}
		spareH = d2h
		d2h, d2cl, d2cu = d1h, d1cl, d1cu
		spareE, spareF = d1e, d1f
		d1h, d1e, d1f = outH, outE, outF
		d1cl, d1cu = cl, cu
		d1lo, d1hi = lo, hi
		_ = rowBestI // affine never clamps, the previous best index is unused
	}

	res.Score = int(best)
	res.EndH = bestI
	res.EndV = bestD - bestI
	res.TraceBytes = tb.traceBytes()
	if err := tb.walkAffine(h, v, bestI, bestD); err != nil {
		return Trace{}, err
	}
	return res, nil
}
