package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/scoring"
)

// tbVariants enumerates the kernel configurations the differential
// oracle covers: all three production variants (including a δb small
// enough to clamp) plus the full-matrix reference.
func tbVariants() map[string]Params {
	dna := scoring.DNADefault
	return map[string]Params{
		"restricted2":         {Scorer: dna, Gap: -1, X: 15, Algo: AlgoRestricted2},
		"restricted2-db256":   {Scorer: dna, Gap: -1, X: 15, DeltaB: 256, Algo: AlgoRestricted2},
		"restricted2-clamped": {Scorer: dna, Gap: -1, X: 25, DeltaB: 8, Algo: AlgoRestricted2},
		"standard3":           {Scorer: dna, Gap: -1, X: 15, Algo: AlgoStandard3},
		"reference":           {Scorer: dna, Gap: -1, X: 15, Algo: AlgoReference},
		"affine":              {Scorer: dna, Gap: -1, GapOpen: -2, X: 21, Algo: AlgoAffine},
		"affine-blosum":       {Scorer: scoring.Blosum62, Gap: -2, GapOpen: -3, X: 49, Algo: AlgoAffine},
	}
}

// checkReplayOracle pins one production Trace against the test-side
// replay oracle (replay_oracle_test.go) in every field: score, end
// points, CIGAR, trace-byte accounting and clamp flag.
func checkReplayOracle(t *testing.T, label string, got, replay Trace) {
	t.Helper()
	if !reflect.DeepEqual(got, replay) {
		t.Fatalf("%s: trace differs from the replay oracle:\ngot:    %+v\nreplay: %+v", label, got, replay)
	}
}

// checkSeedTraceback runs the full differential oracle for one workload
// and parameter set: each side's production Trace must equal the replay
// oracle's in every field, the traceback must bit-match the score-only
// kernel (score and end points), the emitted CIGAR must validate and
// consume exactly the aligned spans, and re-scoring the CIGAR over the
// aligned fragments (alignment.ScoreOf — an independent recomputation)
// must reproduce the kernel score exactly. For unclamped linear variants
// the score is additionally pinned to the full-matrix reference oracle.
func checkSeedTraceback(t *testing.T, h, v []byte, s Seed, p Params, label string) {
	t.Helper()
	var ws Workspace
	want, err := ws.ExtendSeed(h, v, s, p)
	if err != nil {
		t.Fatalf("%s: ExtendSeed: %v", label, err)
	}
	got, aln, err := ws.TracebackSeed(h, v, s, p)
	if err != nil {
		t.Fatalf("%s: TracebackSeed: %v", label, err)
	}
	checkSidesAgainstReplay(t, &ws, h, v, s, p, label)
	if got.Score != want.Score || got.LeftScore != want.LeftScore || got.RightScore != want.RightScore {
		t.Fatalf("%s: traceback scores (%d,%d,%d) != kernel (%d,%d,%d)", label,
			got.Score, got.LeftScore, got.RightScore, want.Score, want.LeftScore, want.RightScore)
	}
	if got.BegH != want.BegH || got.BegV != want.BegV || got.EndH != want.EndH || got.EndV != want.EndV {
		t.Fatalf("%s: traceback span [%d,%d)x[%d,%d) != kernel [%d,%d)x[%d,%d)", label,
			got.BegH, got.EndH, got.BegV, got.EndV, want.BegH, want.EndH, want.BegV, want.EndV)
	}
	if err := aln.Validate(); err != nil {
		t.Fatalf("%s: emitted alignment invalid: %v (cigar %q)", label, err, aln.Cigar)
	}
	recon, err := alignment.ScoreOf(h[aln.BegH:aln.EndH], v[aln.BegV:aln.EndV], aln.Cigar,
		p.Scorer, p.Gap, p.GapOpen)
	if err != nil {
		t.Fatalf("%s: score reconstruction: %v (cigar %q)", label, err, aln.Cigar)
	}
	if recon != want.Score {
		t.Fatalf("%s: reconstructed score %d != kernel score %d (cigar %q)", label, recon, want.Score, aln.Cigar)
	}
	// Unclamped linear variants must also agree with core/reference.go.
	if p.Algo != AlgoAffine && !got.Stats.Clamped {
		rp := p
		rp.Algo = AlgoReference
		rp.DeltaB = 0
		ref, err := ExtendSeed(h, v, s, rp)
		if err != nil {
			t.Fatalf("%s: reference oracle: %v", label, err)
		}
		if want.Score != ref.Score {
			t.Fatalf("%s: kernel score %d != reference oracle %d", label, want.Score, ref.Score)
		}
		if recon != ref.Score {
			t.Fatalf("%s: reconstructed score %d != reference oracle %d", label, recon, ref.Score)
		}
	}
}

// checkSidesAgainstReplay compares both production seed-extension
// traces with the replay oracle's.
func checkSidesAgainstReplay(t *testing.T, ws *Workspace, h, v []byte, s Seed, p Params, label string) {
	t.Helper()
	left, err := ws.TracebackLeft(h, v, s.H, s.V, p)
	if err != nil {
		t.Fatalf("%s: TracebackLeft: %v", label, err)
	}
	replay, err := ws.replayLeft(h, v, s.H, s.V, p)
	if err != nil {
		t.Fatalf("%s: replay oracle (left): %v", label, err)
	}
	checkReplayOracle(t, label+"/left", left, replay)
	right, err := ws.TracebackRight(h, v, s.H+s.Len, s.V+s.Len, p)
	if err != nil {
		t.Fatalf("%s: TracebackRight: %v", label, err)
	}
	if replay, err = ws.replayRight(h, v, s.H+s.Len, s.V+s.Len, p); err != nil {
		t.Fatalf("%s: replay oracle (right): %v", label, err)
	}
	checkReplayOracle(t, label+"/right", right, replay)
}

// TestTracebackDifferentialOracle is the seeded table-driven half of the
// differential test layer: randomized seed-and-extend workloads across
// every variant, mutation rate and size class.
func TestTracebackDifferentialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for name, p := range tbVariants() {
		for _, size := range []int{40, 200, 700} {
			for _, rate := range []float64{0.02, 0.15, 0.35} {
				for it := 0; it < 12; it++ {
					h := randDNA(rng, size)
					v := mutate(rng, h, rate)
					k := 9
					if k > len(v) {
						k = len(v)
					}
					// Plant an exact seed so extension anchors are valid.
					sH := rng.Intn(len(h) - k + 1)
					sV := rng.Intn(len(v) - k + 1)
					copy(v[sV:sV+k], h[sH:sH+k])
					s := Seed{H: sH, V: sV, Len: k}
					checkSeedTraceback(t, h, v, s, p, name)
				}
			}
		}
	}
}

// TestTracebackExtensionMatchesAlign checks the single-extension entry
// point on forward views, including zero-length and empty-sequence edges,
// for every variant, three random draws per geometry.
func TestTracebackExtensionMatchesAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for name, p := range tbVariants() {
		for draw := 0; draw < 3; draw++ {
			label := fmt.Sprintf("%s/draw%d", name, draw)
			for _, mn := range [][2]int{{0, 0}, {0, 17}, {17, 0}, {1, 1}, {33, 29}, {250, 260}} {
				h := randDNA(rng, mn[0])
				v := mutate(rng, h, 0.2)
				for len(v) < mn[1] {
					v = append(v, randDNA(rng, mn[1]-len(v))...)
				}
				v = v[:mn[1]]
				var ws Workspace
				want := Align(NewView(h), NewView(v), p)
				tr, err := ws.TracebackExtension(NewView(h), NewView(v), p)
				if err != nil {
					t.Fatalf("%s %v: %v", label, mn, err)
				}
				replay, err := ws.replayTrace(NewView(h), NewView(v), p, true)
				if err != nil {
					t.Fatalf("%s %v: replay oracle: %v", label, mn, err)
				}
				checkReplayOracle(t, fmt.Sprintf("%s %v", label, mn), tr, replay)
				if tr.Score != want.Score || tr.EndH != want.EndH || tr.EndV != want.EndV {
					t.Fatalf("%s %v: traceback (%d,%d,%d) != kernel (%d,%d,%d)",
						label, mn, tr.Score, tr.EndH, tr.EndV, want.Score, want.EndH, want.EndV)
				}
				st, err := tr.Cigar.Stats()
				if err != nil {
					t.Fatalf("%s %v: cigar %q: %v", label, mn, tr.Cigar, err)
				}
				if st.SpanH != tr.EndH || st.SpanV != tr.EndV {
					t.Fatalf("%s %v: cigar %q spans %dx%d, extension consumed %dx%d",
						label, mn, tr.Cigar, st.SpanH, st.SpanV, tr.EndH, tr.EndV)
				}
				recon, err := alignment.ScoreOf(h[:tr.EndH], v[:tr.EndV], tr.Cigar, p.Scorer, p.Gap, p.GapOpen)
				if err != nil || recon != want.Score {
					t.Fatalf("%s %v: reconstructed %d (err %v), kernel %d (cigar %q)",
						label, mn, recon, err, want.Score, tr.Cigar)
				}
				if tr.Clamped != want.Stats.Clamped {
					t.Fatalf("%s %v: traceback clamped=%v, kernel clamped=%v", label, mn, tr.Clamped, want.Stats.Clamped)
				}
			}
		}
	}
}

// TestTracebackMemoryBoundedByBand pins the space story: the recorded
// trace footprint must stay bounded by antidiagonals × band, far below
// the O(m·n) score matrix, and a δb-clamped Restricted2 run must bound
// the per-antidiagonal storage by δb.
func TestTracebackMemoryBoundedByBand(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randDNA(rng, 3000)
	v := mutate(rng, h, 0.15)
	const deltaB = 64
	p := Params{Scorer: scoring.DNADefault, Gap: -1, X: 20, DeltaB: deltaB, Algo: AlgoRestricted2}
	var ws Workspace
	res := ws.ExtendRight(h, v, 0, 0, p)
	tr, err := ws.TracebackRight(h, v, 0, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Score != res.Score {
		t.Fatalf("traceback score %d != kernel %d", tr.Score, res.Score)
	}
	// 2 bits per cell over ≤ δb-wide windows, plus 8 index bytes per
	// antidiagonal and the one-element offs slack.
	bound := res.Stats.Antidiagonals*(deltaB/4+8) + 16
	if tr.TraceBytes > bound {
		t.Fatalf("trace bytes %d exceed the band bound %d", tr.TraceBytes, bound)
	}
	full := (len(h) + 1) * (len(v) + 1) * 4
	if tr.TraceBytes*20 > full {
		t.Fatalf("trace bytes %d are not far below the %d-byte full matrix", tr.TraceBytes, full)
	}
}

// FuzzTracebackOracle is the fuzzing half of the differential layer:
// arbitrary bytes become a workload (sequences, seed geometry, variant,
// penalties) and every invariant of the table-driven oracle must hold.
func FuzzTracebackOracle(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGT"), []byte("ACGTACGTTCGTACGT"), uint8(0), uint8(4), uint8(15))
	f.Add([]byte("GATTACAGATTACA"), []byte("GATTACATTACAGA"), uint8(3), uint8(2), uint8(7))
	f.Add([]byte("AAAAAAAAAA"), []byte("TTTTTTTTTT"), uint8(1), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, hb, vb []byte, mode, geom, xb uint8) {
		if len(hb) == 0 || len(vb) == 0 || len(hb) > 300 || len(vb) > 300 {
			return
		}
		p := Params{Scorer: scoring.DNADefault, Gap: -1, X: int(xb)}
		switch mode % 4 {
		case 0:
			p.Algo = AlgoRestricted2
		case 1:
			p.Algo = AlgoRestricted2
			p.DeltaB = 4 + int(geom)%32
		case 2:
			p.Algo = AlgoStandard3
		case 3:
			p.Algo = AlgoAffine
			p.GapOpen = -1 - int(geom)%4
		}
		k := 1 + int(geom)%5
		if k > len(hb) || k > len(vb) {
			k = min(len(hb), len(vb))
		}
		sH := int(geom) * 7 % (len(hb) - k + 1)
		sV := int(xb) * 5 % (len(vb) - k + 1)
		s := Seed{H: sH, V: sV, Len: k}

		var ws Workspace
		want, err := ws.ExtendSeed(hb, vb, s, p)
		if err != nil {
			t.Fatal(err)
		}
		got, aln, err := ws.TracebackSeed(hb, vb, s, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want.Score || got.BegH != want.BegH || got.BegV != want.BegV ||
			got.EndH != want.EndH || got.EndV != want.EndV {
			t.Fatalf("traceback %+v != kernel %+v", got, want)
		}
		if err := aln.Validate(); err != nil {
			t.Fatalf("invalid alignment: %v (cigar %q)", err, aln.Cigar)
		}
		recon, err := alignment.ScoreOf(hb[aln.BegH:aln.EndH], vb[aln.BegV:aln.EndV], aln.Cigar,
			p.Scorer, p.Gap, p.GapOpen)
		if err != nil {
			t.Fatalf("score reconstruction: %v (cigar %q)", err, aln.Cigar)
		}
		if recon != want.Score {
			t.Fatalf("reconstructed score %d != kernel %d (cigar %q)", recon, want.Score, aln.Cigar)
		}
		if p.Algo != AlgoAffine && !want.Stats.Clamped {
			rp := p
			rp.Algo = AlgoReference
			rp.DeltaB = 0
			ref, err := ExtendSeed(hb, vb, s, rp)
			if err != nil {
				t.Fatal(err)
			}
			if want.Score != ref.Score {
				t.Fatalf("kernel score %d != reference oracle %d", want.Score, ref.Score)
			}
		}
	})
}
