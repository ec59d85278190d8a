package core

import (
	"math/rand"
	"testing"

	"github.com/sram-align/xdropipu/internal/scoring"
)

// Kernel-level micro-benchmarks: single-core Mcells/s of each variant on
// the same 2000bp/15%-error workload as the facade benchmarks.

func benchKernelPair(n int, errRate float64) ([]byte, []byte) {
	rng := rand.New(rand.NewSource(42))
	h := randDNA(rng, n)
	v := mutate(rng, h, errRate)
	return h, v
}

func benchParams(algo Algo, deltaB int) Params {
	p := Params{Scorer: scoring.DNADefault, Gap: -1, X: 15, Algo: algo, DeltaB: deltaB}
	if algo == AlgoAffine {
		p.GapOpen = -2
	}
	return p
}

func benchKernel(b *testing.B, algo Algo, deltaB int) {
	b.Helper()
	h, v := benchKernelPair(2000, 0.15)
	p := benchParams(algo, deltaB)
	hv, vv := NewView(h), NewView(v)
	var ws Workspace
	ws.align(hv, vv, p) // warm buffers; the loop must be allocation-free
	var cells int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells += ws.align(hv, vv, p).Stats.Cells
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

func BenchmarkKernelRestricted2(b *testing.B) { benchKernel(b, AlgoRestricted2, 256) }
func BenchmarkKernelStandard3(b *testing.B)   { benchKernel(b, AlgoStandard3, 0) }
func BenchmarkKernelAffine(b *testing.B)      { benchKernel(b, AlgoAffine, 0) }

// benchTraceback measures the traced path: one TracebackExtension
// (fused scoring sweep, direction recording, walk and CIGAR encoding)
// per iteration on the same workload, reporting the score pass's cells
// per second so the figure compares directly with benchKernel's.
func benchTraceback(b *testing.B, algo Algo, deltaB int) {
	b.Helper()
	h, v := benchKernelPair(2000, 0.15)
	p := benchParams(algo, deltaB)
	hv, vv := NewView(h), NewView(v)
	var ws Workspace
	cells := ws.align(hv, vv, p).Stats.Cells
	if _, err := ws.TracebackExtension(hv, vv, p); err != nil { // warm buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.TracebackExtension(hv, vv, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

func BenchmarkTracebackRestricted2(b *testing.B) { benchTraceback(b, AlgoRestricted2, 256) }
func BenchmarkTracebackAffine(b *testing.B)      { benchTraceback(b, AlgoAffine, 0) }

// TestKernelLoopsAllocationFree pins the alloc regression: with a warm
// workspace, no variant may allocate per extension.
func TestKernelLoopsAllocationFree(t *testing.T) {
	h, v := benchKernelPair(2000, 0.15)
	hv, vv := NewView(h), NewView(v)
	for _, algo := range []Algo{AlgoRestricted2, AlgoStandard3, AlgoAffine} {
		p := Params{Scorer: scoring.DNADefault, Gap: -1, GapOpen: -2, X: 15, DeltaB: 256, Algo: algo}
		var ws Workspace
		ws.align(hv, vv, p)
		if n := testing.AllocsPerRun(10, func() { ws.align(hv, vv, p) }); n != 0 {
			t.Errorf("%v: %.0f allocs per warm extension, want 0", algo, n)
		}
	}
}
