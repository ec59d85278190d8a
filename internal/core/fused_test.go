package core

import (
	"math/rand"
	"testing"

	"github.com/sram-align/xdropipu/internal/alignment"
)

// fusedVariants is tbVariants minus the full-matrix reference, which is
// never fused-eligible.
func fusedVariants() map[string]Params {
	m := tbVariants()
	delete(m, "reference")
	return m
}

// checkFusedExtension runs one extension side three ways — score-only,
// the test-side two-pass replay oracle, fused single-pass — and pins the
// three-way contract: the fused Result bit-matches the score kernel in
// every field (the kernel accumulates fused Stats as if the score kernel
// ran), and the fused Trace equals the replay oracle's in every field
// (score, end points, CIGAR, clamp flag and trace-byte accounting), as
// does the production Traceback* entry point's, with the CIGAR
// independently re-scoring to the kernel score.
func checkFusedExtension(t *testing.T, h, v []byte, hOff, vOff int, right bool, p Params, label string) {
	t.Helper()
	var ws Workspace
	var want Result
	var replay, prod Trace
	var fr Result
	var ft Trace
	var err error
	if right {
		want = ws.ExtendRight(h, v, hOff, vOff, p)
		replay, err = ws.replayRight(h, v, hOff, vOff, p)
		if err != nil {
			t.Fatalf("%s: replay oracle: %v", label, err)
		}
		if prod, err = ws.TracebackRight(h, v, hOff, vOff, p); err != nil {
			t.Fatalf("%s: TracebackRight: %v", label, err)
		}
		fr, ft, err = ws.FusedExtendRight(h, v, hOff, vOff, p)
	} else {
		want = ws.ExtendLeft(h, v, hOff, vOff, p)
		replay, err = ws.replayLeft(h, v, hOff, vOff, p)
		if err != nil {
			t.Fatalf("%s: replay oracle: %v", label, err)
		}
		if prod, err = ws.TracebackLeft(h, v, hOff, vOff, p); err != nil {
			t.Fatalf("%s: TracebackLeft: %v", label, err)
		}
		fr, ft, err = ws.FusedExtendLeft(h, v, hOff, vOff, p)
	}
	if err != nil {
		t.Fatalf("%s: fused: %v", label, err)
	}
	if fr != want {
		t.Fatalf("%s: fused Result differs from score kernel:\nfused: %+v\nscore: %+v", label, fr, want)
	}
	checkReplayOracle(t, label+"/fused", ft, replay)
	checkReplayOracle(t, label+"/traceback", prod, replay)
	// Independent oracle: the CIGAR re-scores to the kernel score over
	// the exact aligned spans.
	var fh, fv []byte
	if right {
		fh, fv = h[hOff:hOff+ft.EndH], v[vOff:vOff+ft.EndV]
	} else {
		fh, fv = h[hOff-ft.EndH:hOff], v[vOff-ft.EndV:vOff]
	}
	recon, err := alignment.ScoreOf(fh, fv, ft.Cigar, p.Scorer, p.Gap, p.GapOpen)
	if err != nil {
		t.Fatalf("%s: reconstruction: %v (cigar %q)", label, err, ft.Cigar)
	}
	if recon != want.Score {
		t.Fatalf("%s: reconstructed score %d != kernel %d (cigar %q)", label, recon, want.Score, ft.Cigar)
	}
}

// TestFusedDifferentialOracle is the three-way seeded-fuzz oracle:
// score-only vs the replay oracle vs fused across every fused-eligible
// variant, size class and mutation rate, on both extension sides.
func TestFusedDifferentialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for name, p := range fusedVariants() {
		for _, size := range []int{40, 200, 700} {
			for _, rate := range []float64{0.03, 0.25} {
				for it := 0; it < 9; it++ {
					h := randDNA(rng, size)
					v := mutate(rng, h, rate)
					k := 9
					if k > len(v) {
						k = len(v)
					}
					sH := rng.Intn(len(h) - k + 1)
					sV := rng.Intn(len(v) - k + 1)
					copy(v[sV:sV+k], h[sH:sH+k])
					checkFusedExtension(t, h, v, sH, sV, false, p, name+"/left")
					checkFusedExtension(t, h, v, sH+k, sV+k, true, p, name+"/right")
				}
			}
		}
	}
}

// TestFusedEligibility pins the gate: the reference oracle never fuses,
// and every production variant does.
func TestFusedEligibility(t *testing.T) {
	for name, p := range tbVariants() {
		if got, want := FusedEligible(p), p.Algo != AlgoReference; got != want {
			t.Errorf("%s: FusedEligible = %v, want %v", name, got, want)
		}
	}
}

// TestFusedEmptyAndEdgeExtensions covers the degenerate geometries the
// peeled loops are most likely to get wrong.
func TestFusedEmptyAndEdgeExtensions(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for name, p := range fusedVariants() {
		for _, mn := range [][2]int{{0, 0}, {0, 17}, {17, 0}, {1, 1}, {2, 1}, {33, 29}} {
			h := randDNA(rng, mn[0])
			v := mutate(rng, h, 0.2)
			for len(v) < mn[1] {
				v = append(v, randDNA(rng, mn[1]-len(v))...)
			}
			v = v[:mn[1]]
			checkFusedExtension(t, h, v, 0, 0, true, p, name+"/edge-right")
			checkFusedExtension(t, h, v, len(h), len(v), false, p, name+"/edge-left")
		}
	}
}
