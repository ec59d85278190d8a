package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/sram-align/xdropipu/internal/ipukernel"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny size, timed and traced, and
// checks that the correctness gate ran and passed and that the result
// line carries every metric BENCHMARK.json names, with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	state := t.TempDir()
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 0.5, trace: trace, scale: 0.1, state: state}
			r, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if r.gate.checks == 0 || !r.correct() || r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%s trace=%v: gate checks=%d mismatches=%d attempted=%d failed=%d (%v)",
					name, trace, r.gate.checks, r.gate.mismatches, r.attempted, r.failed, r.gate.err())
			}
			var out bytes.Buffer
			if err := r.write(&out, trace); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var final struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, trace, err)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(final.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(final.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := final.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			// A second run of the same seed must reproduce every exact
			// metric (checkExact compares against the first run's record).
			if _, err := run(o); err != nil {
				t.Fatalf("%s trace=%v rerun: %v", name, trace, err)
			}
		}
	}
}

// TestGateDetectsMismatch checks that a single differing result fails
// the gate.
func TestGateDetectsMismatch(t *testing.T) {
	g := newGate()
	want := []ipukernel.AlignOut{{GlobalID: 0, Score: 10}, {GlobalID: 1, Score: 12}}
	got := append([]ipukernel.AlignOut(nil), want...)
	if !g.sameResults("same", got, want) || g.mismatches != 0 {
		t.Fatal("identical results failed the gate")
	}
	got[1].Score++
	if g.sameResults("changed", got, want) || g.mismatches != 1 || g.err() == nil {
		t.Fatal("a changed score passed the gate")
	}
}

// TestExactnessDetectsDrift checks that a changed exact metric fails a
// rerun of the same seed while host-clock metrics may differ.
func TestExactnessDetectsDrift(t *testing.T) {
	o := options{workload: "overlap", seed: 1, scale: 1, state: t.TempDir()}
	r := &result{metrics: map[string]float64{"modeled_wall_s": 1.5, "setup_s": 0.1}}
	if err := checkExact(o, r); err != nil {
		t.Fatal(err)
	}
	r.metrics["setup_s"] = 0.2
	if err := checkExact(o, r); err != nil {
		t.Fatalf("a host-clock metric failed the exactness check: %v", err)
	}
	r.metrics["modeled_wall_s"] = 1.25
	if err := checkExact(o, r); err == nil {
		t.Fatal("a changed exact metric passed the exactness check")
	}
}
