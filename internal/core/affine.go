package core

// Affine runs a Gotoh affine-gap X-Drop extension. It allocates its own
// workspace; use (*Workspace).Affine in hot loops.
func Affine(h, v View, p Params) Result {
	var w Workspace
	return w.Affine(h, v, p)
}

// Affine is the affine-gap (Gotoh) X-Drop extension backing the ksw2-like
// baseline (§6.2). A gap of length k costs GapOpen + k·Gap, so with
// ksw2-style penalties long gaps are penalised less per column than under
// the linear scheme, which genuinely enlarges the live search space — the
// behaviour the paper names as the reason ksw2 trails SeqAn.
//
// The recurrence keeps three channels per cell:
//
//	E(i,j) = max(E(i,j−1), H(i,j−1)+GapOpen) + Gap
//	F(i,j) = max(F(i−1,j), H(i−1,j)+GapOpen) + Gap
//	H(i,j) = max(H(i−1,j−1)+Sim(h_i,v_j), E(i,j), F(i,j))
//
// X-Drop pruning applies to every channel against the running best T.
// A cell is live while any channel survives; at the boundaries the H
// value equals the single surviving gap channel.
//
// Like the linear kernels, the loops run on NegInf-padded int32 buffers
// (see dp32.go) with the view direction resolved to byte-row slices once
// per extension, boundary cells peeled, liveness recovered by scanning
// the stored channels, and trace counters accumulated in locals.
func (w *Workspace) Affine(h, v View, p Params) Result {
	m, n := h.Len(), v.Len()
	delta := min(m, n) + 1
	w.b0 = growBuf32(w.b0, delta)
	w.b1 = growBuf32(w.b1, delta)
	w.b2 = growBuf32(w.b2, delta)
	w.e0 = growBuf32(w.e0, delta)
	w.e1 = growBuf32(w.e1, delta)
	w.f0 = growBuf32(w.f0, delta)
	w.f1 = growBuf32(w.f1, delta)

	res := Result{Stats: Stats{
		TheoreticalCells: int64(m) * int64(n),
		WorkBytes:        7 * delta * ScoreBytes,
	}}

	tab := p.Scorer.Table()
	gape := int32(p.Gap)
	gapo := int32(p.GapOpen)
	// Hoist the gap-open+extend sum: max(a,b)+c ≡ max(a+c, b+c) (exact —
	// int32 working values are orders of magnitude inside the range), so
	// each E/F update is two independent adds feeding one max instead of
	// the serial add→max→add chain the textbook recurrence spells.
	goe := gapo + gape
	hb, vb := h.data, v.data
	hStep, hOrg := h.dir()
	vStep, vD, vOrg := v.vdir()

	// d1 buffers hold antidiagonal d−1 (all three channels), d2h holds
	// d−2 (only H is read from it); out* are written for d. Window
	// starts and the live bounds of d−1 rotate as plain scalars.
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

	best, t := int32(0), int32(0)
	bestI, bestD := 0, 0

	for d := 1; d <= m+n; d++ {
		cl := max(d1lo, max(0, d-n))
		cu := min(d1hi+1, min(d, m))
		if cl > cu {
			break
		}
		limit := pruneLimit(t, p.X)
		lo, hi := -1, -1
		o1 := bufPad - d1cl
		o2 := bufPad - d2cl
		oo := bufPad - cl

		i := cl
		if i == 0 {
			// Top boundary (j = d): only the E channel exists, and it
			// is also the cell's H value (H = max(−∞, E, −∞)).
			e := max(d1e[o1]+gape, d1h[o1]+goe)
			if e < limit {
				e = negInf32
			}
			outH[oo], outE[oo], outF[oo] = e, e, negInf32
			i = 1
		}
		iB := cu
		peelDiag := cu == d // bottom boundary cell (j = 0) exists
		if peelDiag {
			iB = cu - 1
		}
		if cnt := iB - i + 1; cnt > 0 {
			base := i
			// Exact-length row slices; d1's H and F values at i−1 are
			// carried in registers instead of re-loaded.
			ohRow := outH[base+oo:][:cnt]
			oeRow := outE[base+oo:][:cnt]
			ofRow := outF[base+oo:][:cnt]
			d2v := d2h[base-1+o2:][:cnt]
			d1hr := d1h[base+o1:][:cnt]
			d1er := d1e[base+o1:][:cnt]
			d1fr := d1f[base+o1:][:cnt]
			hlv := d1h[base-1+o1]
			flv := d1f[base-1+o1]
			switch {
			case !h.rev && !v.rev:
				hRow := hb[base-1:][:cnt]
				vRow := vb[d-base-cnt:][:cnt]
				for k := range ohRow {
					hrv := d1hr[k]
					e := max(d1er[k]+gape, hrv+goe)
					f := max(flv+gape, hlv+goe)
					flv = d1fr[k]
					s := d2v[k] + int32(tab[hRow[k]][vRow[cnt-1-k]])
					hlv = hrv
					if e > s {
						s = e
					}
					if f > s {
						s = f
					}
					if s < limit {
						s = negInf32
					}
					if e < limit {
						e = negInf32
					}
					if f < limit {
						f = negInf32
					}
					ohRow[k], oeRow[k], ofRow[k] = s, e, f
				}
			case h.rev && v.rev:
				hRow := hb[m-base-cnt+1:][:cnt]
				vRow := vb[n-d+base:][:cnt]
				for k := range ohRow {
					hrv := d1hr[k]
					e := max(d1er[k]+gape, hrv+goe)
					f := max(flv+gape, hlv+goe)
					flv = d1fr[k]
					s := d2v[k] + int32(tab[hRow[cnt-1-k]][vRow[k]])
					hlv = hrv
					if e > s {
						s = e
					}
					if f > s {
						s = f
					}
					if s < limit {
						s = negInf32
					}
					if e < limit {
						e = negInf32
					}
					if f < limit {
						f = negInf32
					}
					ohRow[k], oeRow[k], ofRow[k] = s, e, f
				}
			default:
				// Mixed-direction views (never produced by the seed
				// extension paths): generic index cursors.
				hIdx := hOrg + hStep*base
				vIdx := vOrg + vD*d + vStep*base
				for k := range ohRow {
					hrv := d1hr[k]
					e := max(d1er[k]+gape, hrv+goe)
					f := max(flv+gape, hlv+goe)
					flv = d1fr[k]
					s := d2v[k] + int32(tab[hb[hIdx]][vb[vIdx]])
					hIdx += hStep
					vIdx += vStep
					hlv = hrv
					if e > s {
						s = e
					}
					if f > s {
						s = f
					}
					if s < limit {
						s = negInf32
					}
					if e < limit {
						e = negInf32
					}
					if f < limit {
						f = negInf32
					}
					ohRow[k], oeRow[k], ofRow[k] = s, e, f
				}
			}
			i = iB + 1
		}
		if peelDiag {
			// Bottom boundary (j = 0): only the F channel exists, and
			// it is also the cell's H value (H = max(−∞, −∞, F)).
			f := max(d1f[i-1+o1]+gape, d1h[i-1+o1]+goe)
			if f < limit {
				f = negInf32
			}
			k := i + oo
			outH[k], outE[k], outF[k] = f, negInf32, f
		}
		width := cu - cl + 1
		setGuards(outH, width)
		setGuards(outE, width)
		setGuards(outF, width)

		// Recover the live sub-window (any surviving channel) and the
		// row's best H from the stored channels: cheaper than branching
		// on liveness and best-so-far per cell inside the DP loop.
		rowH := outH[bufPad:][:width]
		rowE := outE[bufPad:][:width]
		rowF := outF[bufPad:][:width]
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
		// Rotate: the d−2 H buffer becomes the next H write target; the
		// E/F channels ping-pong between d−1 and the write target.
		d2h, d1h, outH = d1h, outH, d2h
		d1e, outE = outE, d1e
		d1f, outF = outF, d1f
		d2cl = d1cl
		d1cl, d1lo, d1hi = cl, lo, hi
	}

	acc.flush(&res.Stats)
	res.Score = int(best)
	res.EndH = bestI
	res.EndV = bestD - bestI
	return res
}
