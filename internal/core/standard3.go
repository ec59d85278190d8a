package core

// Standard3 runs Zhang's three-antidiagonal X-Drop extension. It allocates
// its own workspace; use (*Workspace).Standard3 in hot loops.
func Standard3(h, v View, p Params) Result {
	var w Workspace
	return w.Standard3(h, v, p)
}

// Standard3 runs Zhang's three-antidiagonal X-Drop extension using the
// workspace buffers. Memory footprint is 3δ scores, δ = min(m,n)+1
// (Fig. 3, left).
//
// Like Restricted2, the kernel runs on NegInf-padded int32 buffers (see
// dp32.go): the view direction is resolved to byte-row slices once per
// extension, the i=0 and j=0 boundary cells are peeled out of the inner
// loop, and interior cells read their neighbors through exact-length row
// slices with no window checks. Antidiagonal rotation moves three slice
// headers and three scalars — no struct copies — and the trace counters
// accumulate in locals (statAcc), flushed once at the end.
func (w *Workspace) Standard3(h, v View, p Params) Result {
	m, n := h.Len(), v.Len()
	delta := min(m, n) + 1
	w.b0 = growBuf32(w.b0, delta)
	w.b1 = growBuf32(w.b1, delta)
	w.b2 = growBuf32(w.b2, delta)

	res := Result{Stats: Stats{
		TheoreticalCells: int64(m) * int64(n),
		WorkBytes:        3 * delta * ScoreBytes,
	}}

	tab := p.Scorer.Table()
	gap := int32(p.Gap)
	hb, vb := h.data, v.data
	hStep, hOrg := h.dir()
	vStep, vD, vOrg := v.vdir()

	// d1b holds antidiagonal d−1, d2b holds d−2; out is written for d.
	// Only the window start (cl) and the live bounds of d−1 are needed
	// from previous antidiagonals, so they rotate as plain scalars.
	d1b, d2b, out := w.b1, w.b2, w.b0
	seedDiag(d1b, 0)
	seedDiag(d2b, negInf32)
	d1cl, d1lo, d1hi := 0, 0, 0
	d2cl := 0

	var acc statAcc
	acc.observe(1, 1)

	best, t := int32(0), int32(0)
	bestI, bestD := 0, 0

	for d := 1; d <= m+n; d++ {
		cl := max(d1lo, max(0, d-n))
		cu := min(d1hi+1, min(d, m))
		if cl > cu {
			break
		}
		limit := pruneLimit(t, p.X)
		// rowBest tracks only the value in the hot loops (a single
		// compare-and-move); its index is recovered afterwards by an
		// equality scan that stops at the first argmax, matching the
		// first-wins tie-breaking of a scalar best chain.
		rowBest := negInf32
		lo, hi := -1, -1
		o1 := bufPad - d1cl
		o2 := bufPad - d2cl
		oo := bufPad - cl

		i := cl
		if i == 0 {
			// Top boundary (j = d): only the vertical gap move exists.
			s := d1b[o1] + gap
			if s < limit {
				s = negInf32
			}
			if s > rowBest {
				rowBest = s
			}
			out[oo] = s
			i = 1
		}
		iB := cu
		peelDiag := cu == d // bottom boundary cell (j = 0) exists
		if peelDiag {
			iB = cu - 1
		}
		if cnt := iB - i + 1; cnt > 0 {
			base := i
			// Exact-length row slices: the compiler proves almost all
			// k accesses in range, so the inner loops are close to
			// bounds-check-free. d1's value at i−1 is carried in a
			// register (dlv) instead of re-loaded.
			outRow := out[base+oo:][:cnt]
			d2v := d2b[base-1+o2:][:cnt]
			d1r := d1b[base+o1:][:cnt]
			dlv := d1b[base-1+o1]
			switch {
			case !h.rev && !v.rev:
				hRow := hb[base-1:][:cnt]
				vRow := vb[d-base-cnt:][:cnt]
				for k := range outRow {
					s := d2v[k] + int32(tab[hRow[k]][vRow[cnt-1-k]])
					drv := d1r[k]
					if g := max(dlv, drv) + gap; g > s {
						s = g
					}
					dlv = drv
					if s < limit {
						s = negInf32
					}
					if s > rowBest {
						rowBest = s
					}
					outRow[k] = s
				}
			case h.rev && v.rev:
				hRow := hb[m-base-cnt+1:][:cnt]
				vRow := vb[n-d+base:][:cnt]
				for k := range outRow {
					s := d2v[k] + int32(tab[hRow[cnt-1-k]][vRow[k]])
					drv := d1r[k]
					if g := max(dlv, drv) + gap; g > s {
						s = g
					}
					dlv = drv
					if s < limit {
						s = negInf32
					}
					if s > rowBest {
						rowBest = s
					}
					outRow[k] = s
				}
			default:
				// Mixed-direction views (never produced by the seed
				// extension paths): generic index cursors.
				hIdx := hOrg + hStep*base
				vIdx := vOrg + vD*d + vStep*base
				for k := range outRow {
					s := d2v[k] + int32(tab[hb[hIdx]][vb[vIdx]])
					hIdx += hStep
					vIdx += vStep
					drv := d1r[k]
					if g := max(dlv, drv) + gap; g > s {
						s = g
					}
					dlv = drv
					if s < limit {
						s = negInf32
					}
					if s > rowBest {
						rowBest = s
					}
					outRow[k] = s
				}
			}
			i = iB + 1
		}
		if peelDiag {
			// Bottom boundary (j = 0): only the horizontal gap move.
			s := d1b[i-1+o1] + gap
			if s < limit {
				s = negInf32
			}
			if s > rowBest {
				rowBest = s
			}
			out[i+oo] = s
		}
		width := cu - cl + 1
		setGuards(out, width)

		// Recover the live sub-window and the row maximum from the
		// stored row: cheaper than branching on liveness and best-so-far
		// per cell inside the DP loop.
		row := out[bufPad:][:width]
		for k := 0; k < width; k++ {
			if row[k] != negInf32 {
				lo = cl + k
				break
			}
		}
		rowBestI := -1
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
		// Rotate: d−2 buffer becomes the next write target.
		d2b, d1b, out = d1b, out, d2b
		d2cl = d1cl
		d1cl, d1lo, d1hi = cl, lo, hi
	}

	acc.flush(&res.Stats)
	res.Score = int(best)
	res.EndH = bestI
	res.EndV = bestD - bestI
	return res
}
