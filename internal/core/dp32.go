package core

import "math"

// The DP kernels work on int32 score buffers: the paper models 4-byte
// scores (Stats.WorkBytes, §3) and the IPU stores them that way, so the
// simulator's working set should match — it also halves cache pressure
// versus 8-byte ints, which is most of the kernels' memory traffic.
//
// int32 bounds the representable alignment score to ±2^29-ish (scores are
// kept above negInf32/2, see pruneLimit); with per-symbol scores ≤ 127
// that covers sequences of a few million symbols per extension, far
// beyond anything a 624 KB tile can hold.

// negInf32 is the pruned-cell sentinel of the working buffers. It is far
// enough from the int32 minimum that adding similarity scores or gap
// penalties cannot wrap.
const negInf32 int32 = math.MinInt32 / 4

// scoreBytes is the working-buffer element size; Stats.WorkBytes is
// computed from it so the modeled footprint matches the real buffers.
const scoreBytes = 4

// bufPad is the number of −∞ guard cells kept on each side of a stored
// antidiagonal window. A row d reads its predecessors at most one (d−1)
// or two (d−2) cells beyond their computed windows — the guards answer
// those reads with −∞ directly, eliminating the per-neighbor window
// bounds checks the old adiag.at performed in the inner loop.
const bufPad = 2

// seedDiag initialises a buffer to the one-cell window {0: v} with its
// guards — the state of antidiagonal 0 (or, with v = negInf32, the
// placeholder for the not-yet-existing antidiagonal −1).
func seedDiag(b []int32, v int32) {
	b[0], b[1], b[2], b[3], b[4] = negInf32, negInf32, v, negInf32, negInf32
}

// setGuards writes the −∞ guard cells around a freshly computed window of
// the given width. O(1) per antidiagonal; it is what lets the inner loops
// read neighbors without window checks.
func setGuards(buf []int32, width int) {
	buf[0], buf[1] = negInf32, negInf32
	buf[width+bufPad], buf[width+bufPad+1] = negInf32, negInf32
}

// growBuf32 returns a buffer holding n window cells plus the guards,
// reusing b's storage when it is large enough.
func growBuf32(b []int32, n int) []int32 {
	n += 2 * bufPad
	if cap(b) >= n {
		return b[:n]
	}
	return make([]int32, n)
}

// pruneLimit returns the X-Drop cutoff T−X for the current antidiagonal,
// clamped so that a pruned cell (negInf32) plus any per-symbol score
// still compares below it — i.e. pruned cells can never resurrect, even
// for enormous X.
func pruneLimit(t int32, x int) int32 {
	l := int(t) - x
	if l < int(negInf32)/2 {
		return negInf32 / 2
	}
	return int32(l)
}

// dir resolves the view's direction once per extension: the symbol read
// by DP column i is data[org+step*i]. This replaces the per-cell
// direction branch of View.At in the kernel inner loops.
func (v View) dir() (step, org int) {
	if v.rev {
		// Column i reads logical symbol i−1, i.e. data[len−1−(i−1)].
		return -1, len(v.data)
	}
	return 1, -1
}

// vdir is dir for the vertical sequence, whose symbol index also depends
// on the antidiagonal: column i of antidiagonal d reads symbol j−1 with
// j = d−i, i.e. data[org + dd*d + step*i].
func (v View) vdir() (step, dd, org int) {
	if v.rev {
		return 1, -1, len(v.data)
	}
	return -1, 1, -1
}

// Workspace holds reusable DP buffers so a long-lived aligner (one per
// simulated IPU thread) performs no per-alignment allocation. The zero
// value is ready to use; buffers grow on demand.
type Workspace struct {
	b0, b1, b2     []int32
	e0, e1, f0, f1 []int32
	// Narrow-tier (int16) buffers; allocated only when a narrow kernel
	// actually runs, so wide-only workloads pay nothing.
	nb0, nb1, nb2      []int16
	ne0, ne1, nf0, nf1 []int16
	// tb is the traceback recording's state (window index, packed
	// direction codes); see traceback.go. Untouched by the score pass.
	tb tracer
}

// statAcc accumulates the per-antidiagonal trace counters in plain locals
// so the kernel inner loops touch registers, not Stats memory; kernels
// flush it into the Result once per extension.
type statAcc struct {
	antid               int
	cells               int64
	chunks32, chunks128 int64
	maxLive             int
}

func (a *statAcc) observe(computedWidth, liveWidth int) {
	a.antid++
	a.cells += int64(computedWidth)
	a.chunks32 += int64((computedWidth + 31) / 32)
	a.chunks128 += int64((computedWidth + 127) / 128)
	if liveWidth > a.maxLive {
		a.maxLive = liveWidth
	}
}

func (a *statAcc) flush(s *Stats) {
	s.Antidiagonals += a.antid
	s.Cells += a.cells
	s.SumComputedBand += a.cells
	s.Chunks32 += a.chunks32
	s.Chunks128 += a.chunks128
	if a.maxLive > s.MaxLiveBand {
		s.MaxLiveBand = a.maxLive
	}
}
