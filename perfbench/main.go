// Command perfbench is the repository's benchmark. One invocation runs
// one named workload through the alignment stack, gates every job's
// results against an untimed golden, and prints the workload's metrics
// as the last line of standard output:
//
//	perfbench --workload overlap|traceback --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics (host clock, tracing
// off; modeled-clock metrics carry the modeled_ prefix). With --trace 1
// it runs the workload again with spans recorded around every call into
// a layer and prints the per-layer metrics instead. run.sh builds and
// runs it from a checkout; BENCHMARK.json lists the workloads and
// metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// progress notes a finished phase on standard error, with the time since
// the process started.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.1fs %s\n", time.Since(processStart).Seconds(), fmt.Sprintf(format, args...))
}

var processStart = time.Now()

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a timed run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"alignments_per_s", "1/s"},
	{"cpu_s_per_kalign", "s"},
	{"job_latency_p50_ms", "ms"},
	{"job_latency_p95_ms", "ms"},
	{"ttfc_p50_ms", "ms"},
	{"capacity_jobs_s", "1/s"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mib", "MiB"},
	{"modeled_gcups", "GCUPS"},
	{"modeled_wall_s", "s"},
	{"modeled_peak_sram_kib", "KiB"},
}

// perLayer are the metrics a traced run reports, on every workload.
var perLayer = []metricDef{
	{"workload.ingest_s", "s"},
	{"workload.ingest_mib_s", "MiB/s"},
	{"wire.encode_ms_p50", "ms"},
	{"wire.decode_ms_p50", "ms"},
	{"wire.payload_kib_p50", "KiB"},
	{"service.accept_ms_p50", "ms"},
	{"service.stream_ms_p50", "ms"},
	{"service.shed_count", "count"},
	{"engine.plan_ready_ms_p50", "ms"},
	{"engine.first_update_ms_p50", "ms"},
	{"engine.jobs_live_mean", "count"},
	{"engine.inflight_batches_mean", "count"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.cache_evictions", "count"},
	{"engine.cache_mib", "MiB"},
	{"driver.build_s", "s"},
	{"driver.assemble_s", "s"},
	{"driver.dedup_ratio", "ratio"},
	{"driver.batches", "count"},
	{"partition.s", "s"},
	{"partition.share", "ratio"},
	{"partition.reuse_factor", "ratio"},
	{"partition.items", "count"},
	{"ipukernel.exec_wall_s", "s"},
	{"ipukernel.exec_busy_s", "s"},
	{"ipukernel.parallel_efficiency", "ratio"},
	{"ipukernel.batch_ms_p50", "ms"},
	{"ipukernel.batch_ms_max", "ms"},
	{"ipukernel.mcells_s", "Mcells/s"},
	{"ipukernel.cells", "count"},
	{"ipukernel.cells_per_theoretical", "ratio"},
	{"ipukernel.race_ratio", "ratio"},
	{"ipukernel.host_mib_in", "MiB"},
	{"ipukernel.traced_extensions", "count"},
	{"ipukernel.trace_skipped_extensions", "count"},
	{"ipukernel.trace_mib", "MiB"},
	{"ipukernel.peak_trace_kib", "KiB"},
	{"core.extend_mcells_s", "Mcells/s"},
	{"core.trace_mcells_s", "Mcells/s"},
	{"trace.overhead_ratio", "ratio"},
}

// exactMetrics are deterministic functions of the inputs: they must
// repeat exactly across runs with the same seed, or the program is
// nondeterministic and the run fails.
var exactMetrics = map[string]bool{
	"modeled_gcups": true, "modeled_wall_s": true, "modeled_peak_sram_kib": true,
	"engine.cache_hit_ratio": true, "driver.dedup_ratio": true, "driver.batches": true,
	"partition.reuse_factor": true, "partition.items": true,
	"ipukernel.cells": true, "ipukernel.cells_per_theoretical": true, "ipukernel.race_ratio": true,
	"ipukernel.host_mib_in": true, "ipukernel.traced_extensions": true,
	"ipukernel.trace_skipped_extensions": true, "ipukernel.trace_mib": true, "ipukernel.peak_trace_kib": true,
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks every dataset (smoke tests); 1 is the benchmark.
	scale float64
	// state is where span dumps and exactness records go ("" = nowhere).
	state string
}

// result is one run's outcome.
type result struct {
	metrics   map[string]float64
	detail    map[string]any
	attempted int
	failed    int
	gate      *gate
}

func newResult(o options) *result {
	return &result{
		metrics: map[string]float64{},
		detail:  map[string]any{"provenance": provenance(o.workload, o.seed, o.scale)},
		gate:    newGate(),
	}
}

// job records one attempted job's outcome.
func (r *result) job(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *result) correct() bool { return r.gate.mismatches == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the detail line and then the result line.
func (r *result) write(w io.Writer, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := map[string]metricValue{}
	for _, m := range defs {
		v, ok := r.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		out[m.name] = metricValue{v, m.unit}
	}
	r.detail["results_digest"] = r.gate.digestHex()
	r.detail["gate_checks"] = r.gate.checks
	r.detail["gate_mismatches"] = r.gate.mismatches
	r.detail["failed_ratio"] = ratio(float64(r.failed), float64(r.attempted))
	detail, err := json.Marshal(map[string]any{"detail": r.detail})
	if err != nil {
		return err
	}
	final, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", detail, final)
	return err
}

// checkExact compares this run's exact metrics with the record a
// previous run of the same binary, workload, seed and mode left in the
// state directory, and writes the record when there is none.
func checkExact(o options, r *result) error {
	if o.state == "" {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	type record struct {
		Binary  string             `json:"binary"`
		Metrics map[string]float64 `json:"metrics"`
	}
	cur := record{Binary: hex.EncodeToString(sum[:]), Metrics: map[string]float64{}}
	for name, v := range r.metrics {
		if exactMetrics[name] {
			cur.Metrics[name] = v
		}
	}
	path := filepath.Join(o.state, "exact", fmt.Sprintf("%s-seed%d-trace%v-scale%g.json", o.workload, o.seed, o.trace, o.scale))
	if b, err := os.ReadFile(path); err == nil {
		var prev record
		if err := json.Unmarshal(b, &prev); err == nil && prev.Binary == cur.Binary {
			for name, v := range cur.Metrics {
				if pv, ok := prev.Metrics[name]; ok && pv != v {
					return fmt.Errorf("exact metric %s = %v, an earlier run of this seed got %v: the program is nondeterministic", name, v, pv)
				}
			}
			return nil
		}
	}
	b, err := json.Marshal(cur)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func run(o options) (*result, error) {
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	r := newResult(o)
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	var err error
	switch o.workload {
	case "overlap":
		err = runClosed(o, r, rec, closedOverlap(o))
	case "traceback":
		err = runClosed(o, r, rec, closedTraceback(o))
	default:
		return nil, fmt.Errorf("unknown workload %q (want overlap or traceback)", o.workload)
	}
	if err != nil {
		return nil, err
	}
	if o.trace {
		r.detail["self_s"] = rec.selfSeconds()
		if o.state != "" {
			if err := rec.write(filepath.Join(o.state, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))); err != nil {
				return nil, err
			}
		}
	}
	if err := checkExact(o, r); err != nil {
		return nil, err
	}
	return r, nil
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: overlap or traceback")
	flag.Int64Var(&o.seed, "seed", 1, "input generation seed")
	flag.Float64Var(&o.seconds, "seconds", 24, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.state, "state", "", "directory for span dumps and exactness records")
	flag.Parse()
	o.trace = trace == 1
	o.scale = 1
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	progress("%s done", o.workload)
	if err := r.write(os.Stdout, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !r.correct() {
		fmt.Fprintln(os.Stderr, "perfbench:", r.gate.err())
		os.Exit(1)
	}
}
