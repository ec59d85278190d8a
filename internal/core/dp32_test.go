package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"github.com/sram-align/xdropipu/internal/scoring"
)

func randProtein(rng *rand.Rand, n int) []byte {
	const sym = "ARNDCQEGHILKMFPSTWYV"
	s := make([]byte, n)
	for i := range s {
		s[i] = sym[rng.Intn(len(sym))]
	}
	return s
}

func mutateProtein(rng *rand.Rand, s []byte, rate float64) []byte {
	const sym = "ARNDCQEGHILKMFPSTWYV"
	out := make([]byte, 0, len(s)+8)
	for _, c := range s {
		if rng.Float64() < rate {
			switch rng.Intn(3) {
			case 0:
				out = append(out, sym[rng.Intn(len(sym))])
			case 1:
				out = append(out, sym[rng.Intn(len(sym))], c)
			case 2:
			}
		} else {
			out = append(out, c)
		}
	}
	return out
}

func reversed(b []byte) []byte {
	out := make([]byte, len(b))
	for i := range b {
		out[i] = b[len(b)-1-i]
	}
	return out
}

// TestOptimizedVariantsMatchReference is the fuzz-style equivalence
// property for the branch-specialized int32 kernels: on random DNA and
// protein pairs, under forward AND reversed views, every optimized
// variant must reproduce the full-matrix Reference oracle exactly —
// Score, EndH/EndV and Stats.Cells. (Reference itself consumes the views
// generically, so a reversed view compares against the oracle running on
// the same reversed inputs; a separate check below pins reversed views to
// materialised reversed sequences.)
func TestOptimizedVariantsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 400; trial++ {
		protein := trial%3 == 2
		var hs, vs []byte
		var p Params
		if protein {
			hs = randProtein(rng, 1+rng.Intn(150))
			vs = mutateProtein(rng, hs, []float64{0, 0.1, 0.3, 0.8}[trial%4])
			p = Params{Scorer: scoring.Blosum62, Gap: -2, X: []int{0, 2, 7, 20, 60, 1 << 18}[trial%6]}
		} else {
			hs = randDNA(rng, 1+rng.Intn(150))
			vs = mutate(rng, hs, []float64{0, 0.05, 0.15, 0.45, 0.9}[trial%5])
			p = Params{Scorer: scoring.DNADefault, Gap: -1, X: []int{0, 1, 5, 12, 30, 1 << 18}[trial%6]}
		}
		if trial%11 == 0 {
			vs = randDNA(rng, 1+rng.Intn(150)) // unrelated pair
		}
		var hv, vv View
		switch trial % 4 {
		case 0:
			hv, vv = NewView(hs), NewView(vs)
		case 1:
			hv, vv = NewReversedView(hs), NewReversedView(vs)
		case 2: // mixed directions: the generic cursor fallback loops
			hv, vv = NewView(hs), NewReversedView(vs)
		default:
			hv, vv = NewReversedView(hs), NewView(vs)
		}

		ref := Reference(hv, vv, p)
		for _, algo := range []Algo{AlgoStandard3, AlgoRestricted2} {
			pp := p
			pp.Algo = algo
			got := Align(hv, vv, pp)
			if got.Score != ref.Score || got.EndH != ref.EndH || got.EndV != ref.EndV {
				t.Fatalf("trial %d: %v %+v != reference %+v (h=%s v=%s x=%d)",
					trial, algo, got, ref, hs, vs, p.X)
			}
			if got.Stats.Cells != ref.Stats.Cells {
				t.Fatalf("trial %d: %v cells %d != reference %d", trial, algo, got.Stats.Cells, ref.Stats.Cells)
			}
			if got.Stats.MaxLiveBand != ref.Stats.MaxLiveBand {
				t.Fatalf("trial %d: %v band %d != reference %d", trial, algo, got.Stats.MaxLiveBand, ref.Stats.MaxLiveBand)
			}
		}
	}
}

// TestAffineZeroOpenMatchesReference pins the affine kernel to the
// linear-gap oracle in the regime where the two recurrences coincide:
// with GapOpen = 0, E and F reduce to plain gap extensions of H, and a
// channel survives pruning exactly when the cell's H does — so scores,
// end points, cell counts and live bands must all match Reference.
func TestAffineZeroOpenMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 200; trial++ {
		hs := randDNA(rng, 1+rng.Intn(150))
		vs := mutate(rng, hs, []float64{0, 0.1, 0.3, 0.8}[trial%4])
		p := Params{Scorer: scoring.DNADefault, Gap: -1, X: []int{0, 3, 9, 25, 1 << 18}[trial%5]}
		var hv, vv View
		switch trial % 4 {
		case 0:
			hv, vv = NewView(hs), NewView(vs)
		case 1:
			hv, vv = NewReversedView(hs), NewReversedView(vs)
		case 2: // mixed directions: the generic cursor fallback loops
			hv, vv = NewView(hs), NewReversedView(vs)
		default:
			hv, vv = NewReversedView(hs), NewView(vs)
		}
		ref := Reference(hv, vv, p)
		pp := p
		pp.Algo = AlgoAffine // GapOpen stays 0
		got := Align(hv, vv, pp)
		if got.Score != ref.Score || got.EndH != ref.EndH || got.EndV != ref.EndV {
			t.Fatalf("trial %d: affine(open=0) %+v != reference %+v (h=%s v=%s x=%d)",
				trial, got, ref, hs, vs, p.X)
		}
		if got.Stats.Cells != ref.Stats.Cells || got.Stats.MaxLiveBand != ref.Stats.MaxLiveBand {
			t.Fatalf("trial %d: affine(open=0) trace (%d,%d) != reference (%d,%d)",
				trial, got.Stats.Cells, got.Stats.MaxLiveBand, ref.Stats.Cells, ref.Stats.MaxLiveBand)
		}
	}
}

// TestReversedViewsMatchMaterialised pins the direction-specialized
// loops: running any variant on reversed views must equal running it on
// materialised reversed byte slices, including the full execution trace.
func TestReversedViewsMatchMaterialised(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 200; trial++ {
		hs := randDNA(rng, 1+rng.Intn(200))
		vs := mutate(rng, hs, 0.2)
		for _, algo := range []Algo{AlgoRestricted2, AlgoStandard3, AlgoAffine, AlgoReference} {
			p := Params{Scorer: scoring.DNADefault, Gap: -1, X: 10, Algo: algo}
			if algo == AlgoAffine {
				p.Scorer = scoring.NewSimple(2, -4)
				p.Gap = -2
				p.GapOpen = -4
				p.X = 20
			}
			if algo == AlgoRestricted2 && trial%2 == 0 {
				p.DeltaB = 8 // exercise the clamped path too
			}
			rev := Align(NewReversedView(hs), NewReversedView(vs), p)
			mat := Align(NewView(reversed(hs)), NewView(reversed(vs)), p)
			if rev.Score != mat.Score || rev.EndH != mat.EndH || rev.EndV != mat.EndV || rev.Stats != mat.Stats {
				t.Fatalf("trial %d %v: reversed view %+v != materialised %+v", trial, algo, rev, mat)
			}
		}
	}
}

// TestWorkBytesMatchesBufferFootprint closes the WorkBytes honesty gap:
// the modeled footprint must be computed from the actual element size of
// the working buffers (4-byte scores, §3), not an assumed one.
func TestWorkBytesMatchesBufferFootprint(t *testing.T) {
	var w Workspace
	h := []byte("ACGTACGTACGTACGT")
	v := []byte("ACGTACGTACGTACGT")
	p := Params{Scorer: scoring.DNADefault, Gap: -1, X: 10}

	w.Restricted2(NewView(h), NewView(v), p)
	elem := int(unsafe.Sizeof(w.b1[0]))
	if elem != ScoreBytes {
		t.Fatalf("buffer element is %d B, WorkBytes math assumes %d B", elem, ScoreBytes)
	}

	// The stored buffers carry 2·bufPad guard cells beyond the modeled
	// window capacity; WorkBytes must equal capacity × element size per
	// antidiagonal for each variant's buffer count.
	delta := min(len(h), len(v)) + 1
	r := w.Restricted2(NewView(h), NewView(v), p)
	if want := 2 * delta * elem; r.Stats.WorkBytes != want {
		t.Errorf("restricted2 WorkBytes = %d, want %d (2δ cells × %d B)", r.Stats.WorkBytes, want, elem)
	}
	if got := (len(w.b1) - 2*bufPad) * elem * 2; got != r.Stats.WorkBytes {
		t.Errorf("restricted2 actual buffers hold %d B of window cells, WorkBytes says %d", got, r.Stats.WorkBytes)
	}

	p.DeltaB = 4
	r = w.Restricted2(NewView(h), NewView(v), p)
	if want := 2 * 4 * elem; r.Stats.WorkBytes != want {
		t.Errorf("restricted2 δb=4 WorkBytes = %d, want %d", r.Stats.WorkBytes, want)
	}
	if got := (len(w.b1) - 2*bufPad) * elem * 2; got != r.Stats.WorkBytes {
		t.Errorf("restricted2 δb=4 buffers hold %d B, WorkBytes says %d", got, r.Stats.WorkBytes)
	}

	p.DeltaB = 0
	s := w.Standard3(NewView(h), NewView(v), p)
	if want := 3 * delta * elem; s.Stats.WorkBytes != want {
		t.Errorf("standard3 WorkBytes = %d, want %d", s.Stats.WorkBytes, want)
	}
	if got := (len(w.b0) - 2*bufPad) * elem * 3; got != s.Stats.WorkBytes {
		t.Errorf("standard3 buffers hold %d B, WorkBytes says %d", got, s.Stats.WorkBytes)
	}

	a := w.Affine(NewView(h), NewView(v), p)
	if want := 7 * delta * elem; a.Stats.WorkBytes != want {
		t.Errorf("affine WorkBytes = %d, want %d", a.Stats.WorkBytes, want)
	}
}

// TestExtendSeedSteadyStateAllocs: a warm workspace must run whole seed
// extensions without allocating — the property that lets one workspace
// per simulated IPU thread run millions of alignments.
func TestExtendSeedSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	h := randDNA(rng, 2000)
	v := mutate(rng, h, 0.15)
	if len(v) < 1200 {
		t.Fatal("mutation shrank sequence too much")
	}
	s := Seed{H: 600, V: 600, Len: 17}
	for _, algo := range []Algo{AlgoRestricted2, AlgoStandard3, AlgoAffine} {
		p := Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, DeltaB: 256, Algo: algo}
		if algo == AlgoAffine {
			p.GapOpen = -4
		}
		var w Workspace
		if _, err := w.ExtendSeed(h, v, s, p); err != nil { // warm the buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := w.ExtendSeed(h, v, s, p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: steady-state ExtendSeed allocates %.1f objects/op, want 0", algo, allocs)
		}
	}
}
