package core

// Restricted2 runs the paper's memory-restricted X-Drop extension
// (Algorithm 1). It allocates its own workspace; use
// (*Workspace).Restricted2 in hot loops.
func Restricted2(h, v View, p Params) Result {
	var w Workspace
	return w.Restricted2(h, v, p)
}

// Restricted2 is the paper's contribution (§3): an X-Drop extension that
// stores only two antidiagonals of bounded length δb (2δb scores total
// instead of Standard3's 3δ).
//
// Two ideas compose:
//
//  1. Gotoh's observation that two antidiagonals suffice — antidiagonal d
//     overwrites d−2 in place, carrying the one value that would be
//     clobbered (the diagonal predecessor) in a scalar (w_last in
//     Algorithm 1). This is safe because the live lower bound L never
//     decreases, so writes trail reads.
//  2. A dynamic working band: the buffers hold only δb cells, and the
//     window is re-aligned every iteration to the live region. If the
//     live region would outgrow δb it is clamped around the current
//     best-scoring cell and Stats.Clamped is set (the paper chooses
//     δb ≥ δw so this does not trigger on real data; §6.1).
//
// DeltaB = 0 (or ≥ δ) reproduces the unrestricted search space exactly.
//
// The kernel runs on NegInf-padded int32 buffers (see dp32.go): the view
// direction is resolved to byte-row slices once per extension, the i=0
// and j=0 boundary cells are peeled out of the inner loop, and interior
// cells read their neighbors through exact-length row slices with no
// direction branches and no window checks. The live sub-window is
// recovered by scanning the stored row's pruned fringes instead of
// branching on liveness per cell, and trace counters accumulate in
// locals (statAcc), flushed once at the end.
func (w *Workspace) Restricted2(h, v View, p Params) Result {
	m, n := h.Len(), v.Len()
	delta := min(m, n) + 1
	capacity := delta
	if p.DeltaB > 0 && p.DeltaB < delta {
		capacity = p.DeltaB
	}
	w.b1 = growBuf32(w.b1, capacity)
	w.b2 = growBuf32(w.b2, capacity)

	res := Result{Stats: Stats{
		TheoreticalCells: int64(m) * int64(n),
		WorkBytes:        2 * capacity * ScoreBytes,
	}}

	tab := p.Scorer.Table()
	gap := int32(p.Gap)
	hb, vb := h.data, v.data
	hStep, hOrg := h.dir()
	vStep, vD, vOrg := v.vdir()

	// d1b holds antidiagonal d−1; d2b holds d−2 and is overwritten in
	// place by d. Window starts and the live bounds of d−1 rotate as
	// plain scalars.
	d1b, d2b := w.b1, w.b2
	seedDiag(d1b, 0)
	seedDiag(d2b, negInf32)
	d1cl, d1lo, d1hi := 0, 0, 0
	d2cl := 0

	var acc statAcc
	acc.observe(1, 1)

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
			// Re-align the working window around the best-scoring
			// cell of the previous antidiagonal (§3: the band is
			// "constantly realigned to the active iteration
			// position that stores the best score").
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
		// rowBest tracks only the value in the hot loops (a single
		// compare-and-move); its index is recovered afterwards by an
		// equality scan that stops at the first argmax, matching the
		// first-wins tie-breaking of a scalar best chain.
		rowBest := negInf32
		lo, hi := -1, -1
		o1 := bufPad - d1cl
		o2 := bufPad - d2cl
		oo := bufPad - cl
		out := d2b // antidiagonal d overwrites d−2 in place
		// wlast carries the d−2 value at i−1 (the diagonal
		// predecessor), which the in-place write would clobber.
		wlast := out[cl-1+o2]

		i := cl
		if i == 0 {
			// Top boundary (j = d): only the vertical gap move exists.
			wnew := out[o2]
			s := d1b[o1] + gap
			if s < limit {
				s = negInf32
			}
			if s > rowBest {
				rowBest = s
			}
			out[oo] = s
			wlast = wnew
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
			// bounds-check-free. outRow aliases d2v shifted left by
			// cl−d2cl cells; wnew is read before outRow[k] is stored,
			// and writes trail reads because cl never decreases.
			outRow := out[base+oo:][:cnt]
			d2v := out[base+o2:][:cnt]
			d1r := d1b[base+o1:][:cnt]
			dlv := d1b[base-1+o1]
			switch {
			case !h.rev && !v.rev:
				hRow := hb[base-1:][:cnt]
				vRow := vb[d-base-cnt:][:cnt]
				// Two cells per iteration: both d−2 reads issue before
				// the pair of in-place stores, so the may-alias
				// load/store pairs serialize half as often.
				k := 0
				for ; k+1 < cnt; k += 2 {
					w0, w1 := d2v[k], d2v[k+1]
					s0 := wlast + int32(tab[hRow[k]][vRow[cnt-1-k]])
					drv0 := d1r[k]
					if g := max(dlv, drv0) + gap; g > s0 {
						s0 = g
					}
					if s0 < limit {
						s0 = negInf32
					}
					if s0 > rowBest {
						rowBest = s0
					}
					outRow[k] = s0
					s1 := w0 + int32(tab[hRow[k+1]][vRow[cnt-2-k]])
					drv1 := d1r[k+1]
					if g := max(drv0, drv1) + gap; g > s1 {
						s1 = g
					}
					if s1 < limit {
						s1 = negInf32
					}
					if s1 > rowBest {
						rowBest = s1
					}
					outRow[k+1] = s1
					dlv = drv1
					wlast = w1
				}
				if k < cnt {
					wnew := d2v[k]
					s := wlast + int32(tab[hRow[k]][vRow[cnt-1-k]])
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
					wlast = wnew
				}
			case h.rev && v.rev:
				hRow := hb[m-base-cnt+1:][:cnt]
				vRow := vb[n-d+base:][:cnt]
				k := 0
				for ; k+1 < cnt; k += 2 {
					w0, w1 := d2v[k], d2v[k+1]
					s0 := wlast + int32(tab[hRow[cnt-1-k]][vRow[k]])
					drv0 := d1r[k]
					if g := max(dlv, drv0) + gap; g > s0 {
						s0 = g
					}
					if s0 < limit {
						s0 = negInf32
					}
					if s0 > rowBest {
						rowBest = s0
					}
					outRow[k] = s0
					s1 := w0 + int32(tab[hRow[cnt-2-k]][vRow[k+1]])
					drv1 := d1r[k+1]
					if g := max(drv0, drv1) + gap; g > s1 {
						s1 = g
					}
					if s1 < limit {
						s1 = negInf32
					}
					if s1 > rowBest {
						rowBest = s1
					}
					outRow[k+1] = s1
					dlv = drv1
					wlast = w1
				}
				if k < cnt {
					wnew := d2v[k]
					s := wlast + int32(tab[hRow[cnt-1-k]][vRow[k]])
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
					wlast = wnew
				}
			default:
				// Mixed-direction views (never produced by the seed
				// extension paths): generic index cursors.
				hIdx := hOrg + hStep*base
				vIdx := vOrg + vD*d + vStep*base
				for k := range outRow {
					wnew := d2v[k]
					s := wlast + int32(tab[hb[hIdx]][vb[vIdx]])
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
					wlast = wnew
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
		d1b, d2b = d2b, d1b
		d2cl = d1cl
		d1cl, d1lo, d1hi = cl, lo, hi
	}

	acc.flush(&res.Stats)
	res.Score = int(best)
	res.EndH = bestI
	res.EndV = bestD - bestI
	return res
}
