package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/workload"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 21

// closedWorkload is a workload driven by one closed-loop client: one
// dataset, submitted over and over, alternating across job kinds.
type closedWorkload struct {
	input   input
	configs []driver.Config
}

func closedOverlap(o options) closedWorkload {
	return closedWorkload{overlapInput(o.seed, o.scale), []driver.Config{overlapConfig()}}
}

func closedTraceback(o options) closedWorkload {
	return closedWorkload{tracebackInput(o.seed, o.scale), tracebackConfigs()}
}

// closedSetup ingests the dataset and starts one engine per job kind.
func closedSetup(w closedWorkload) (*workload.Dataset, []*engine.Engine, time.Duration, error) {
	start := time.Now()
	d, err := w.input.ingest()
	ingest := time.Since(start)
	if err != nil {
		return nil, nil, 0, err
	}
	engines := make([]*engine.Engine, len(w.configs))
	for i, cfg := range w.configs {
		engines[i] = engine.New(engine.WithDriverConfig(cfg))
	}
	return d, engines, ingest, nil
}

func closeEngines(engines []*engine.Engine) {
	for _, e := range engines {
		e.Close()
	}
}

// runClosed runs the overlap or traceback workload: set-up, goldens and
// oracles, then either the timed closed loop (end-to-end metrics) or the
// traced run (per-layer metrics).
func runClosed(o options, r *result, rec *recorder, w closedWorkload) error {
	ctx := context.Background()
	var d *workload.Dataset
	var engines []*engine.Engine
	var setups, ingests []float64
	for i := range setupReps {
		runtime.GC()
		start := time.Now()
		dd, engs, ingest, err := closedSetup(w)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		ingests = append(ingests, ingest.Seconds())
		if i < setupReps-1 {
			closeEngines(engs)
			continue
		}
		d, engines = dd, engs
	}
	defer closeEngines(engines)
	r.metrics["setup_s"] = median(setups)
	r.metrics["workload.ingest_s"] = median(ingests)
	r.metrics["workload.ingest_mib_s"] = float64(len(w.input.fasta)) / mib / median(ingests)
	r.detail["comparisons_per_job"] = len(d.Comparisons)

	progress("set-up done")
	goldens := make([]*driver.Report, len(w.configs))
	for i, cfg := range w.configs {
		g, err := r.gate.golden(d, cfg)
		if err != nil {
			return err
		}
		r.gate.checkOracles(d, g, cfg)
		goldens[i] = g
	}
	progress("goldens done")
	modeled(r, goldens)
	if o.trace {
		return tracedClosed(ctx, o, r, rec, w, d, engines, goldens)
	}

	// One warm-up job per job kind, gated but excluded from the metrics.
	for k, eng := range engines {
		if err := closedJob(ctx, r, eng, d, goldens[k], nil); err != nil {
			return err
		}
	}
	var lat, ttfc []float64
	cmps := 0
	startPeakRSS()
	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < len(engines) || time.Now().Before(deadline); i++ {
		k := i % len(engines)
		var t jobTiming
		if err := closedJob(ctx, r, engines[k], d, goldens[k], &t); err != nil {
			return err
		}
		lat = append(lat, t.latency())
		ttfc = append(ttfc, t.ttfc())
		cmps += len(d.Comparisons)
	}
	elapsed := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	r.metrics["peak_rss_mib"] = peakRSSMiB()

	r.metrics["alignments_per_s"] = float64(cmps) / elapsed
	r.metrics["cpu_s_per_kalign"] = cpu / (float64(cmps) / 1000)
	r.metrics["job_latency_p50_ms"] = median(lat)
	r.metrics["job_latency_p95_ms"] = quantile(lat, 0.95)
	r.metrics["ttfc_p50_ms"] = median(ttfc)
	r.metrics["capacity_jobs_s"] = float64(len(lat)) / elapsed
	r.metrics["ok_ratio"] = 1 - ratio(float64(r.failed), float64(r.attempted))
	r.detail["samples"] = map[string]int{"jobs": len(lat), "beyond_p50": beyond(lat, 0.5), "beyond_p95": beyond(lat, 0.95)}
	r.detail["job_latencies_ms"] = lat
	return nil
}

// closedJob runs one engine job and gates its report. A job that errors
// or mismatches counts as failed; an error also ends the run.
func closedJob(ctx context.Context, r *result, eng *engine.Engine, d *workload.Dataset, golden *driver.Report, out *jobTiming) error {
	t, rep, err := engineJob(ctx, eng, d)
	if err != nil {
		r.job(false)
		return fmt.Errorf("job on %s: %w", d.Name, err)
	}
	r.job(r.gate.sameReport("job", rep, golden))
	if out != nil {
		*out = t
	}
	return nil
}

// tracedClosed is the per-layer run of a closed workload: the staged
// driver pipeline traced and untraced, the layer probes, a few direct
// engine jobs and a few jobs through a loopback service with a result
// cache.
func tracedClosed(ctx context.Context, o options, r *result, rec *recorder, w closedWorkload,
	d *workload.Dataset, engines []*engine.Engine, goldens []*driver.Report) error {
	jobs := make([]stagedJob, len(w.configs))
	for i, cfg := range w.configs {
		jobs[i] = stagedJob{fmt.Sprintf("%s/%d", d.Name, i), d, cfg, goldens[i]}
	}
	window := time.Duration(o.seconds * float64(time.Second) / 2)
	jobWall, err := stagedLayers(ctx, r, rec, jobs, 2*len(jobs), window)
	if err != nil {
		return err
	}
	exactLayers(r, goldens)
	if err := partitionLayer(r, rec, jobs, jobWall); err != nil {
		return err
	}
	if err := probeLayers(r, rec, []*workload.Dataset{d}, 3, w.configs[0]); err != nil {
		return err
	}
	if err := engineLayer(ctx, r, engines[0], []stagedJob{jobs[0], jobs[0]}); err != nil {
		return err
	}
	return serviceLayer(ctx, r, rec, engine.WithDriverConfig(w.configs[0]), jobs[:1])
}
