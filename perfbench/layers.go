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

// stagedJob is one job of a traced run's staged-pipeline section.
type stagedJob struct {
	label  string
	d      *workload.Dataset
	cfg    driver.Config
	golden *driver.Report
}

// stagedLayers runs each job through the staged driver pipeline twice —
// untraced, then traced — after one discarded warm-up, gating every
// report against its golden. It reports the driver and ipukernel host
// metrics from the traced spans, and the tracing overhead as the traced
// total over the untraced total. jobs is cycled until at least
// minJobs jobs ran and the window has passed. It returns the mean
// untraced job wall time in seconds.
func stagedLayers(ctx context.Context, r *result, rec *recorder, jobs []stagedJob, minJobs int, window time.Duration) (float64, error) {
	if _, _, err := staged(ctx, jobs[0].d, jobs[0].cfg, nil, 0); err != nil {
		return 0, fmt.Errorf("staged warm-up: %w", err)
	}
	var plain, traced time.Duration
	var cells int64
	n := 0
	deadline := time.Now().Add(window)
	for i := 0; i < max(minJobs, len(jobs)) || time.Now().Before(deadline); i++ {
		j := jobs[i%len(jobs)]
		for _, rc := range []*recorder{nil, rec} {
			rep, wall, err := staged(ctx, j.d, j.cfg, rc, i+1)
			if err != nil {
				r.job(false)
				return 0, fmt.Errorf("staged %s: %w", j.label, err)
			}
			r.job(r.gate.sameReport("staged "+j.label, rep, j.golden))
			if rc == nil {
				plain += wall
			} else {
				traced += wall
				cells += rep.Cells
			}
		}
		n++
	}
	perJob := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(n)
	}
	batch := rec.durations(spanBatch)
	exec := rec.durations(spanExec)
	batchMs := make([]float64, len(batch))
	for i, b := range batch {
		batchMs[i] = b * 1e3
	}
	r.metrics["driver.build_s"] = perJob(rec.durations(spanBuild))
	r.metrics["driver.assemble_s"] = perJob(rec.durations(spanAssemble))
	r.metrics["ipukernel.exec_wall_s"] = perJob(exec)
	r.metrics["ipukernel.exec_busy_s"] = perJob(batch)
	r.metrics["ipukernel.parallel_efficiency"] = perJob(batch) / perJob(exec) / float64(runtime.GOMAXPROCS(0))
	r.metrics["ipukernel.batch_ms_p50"] = median(batchMs)
	r.metrics["ipukernel.batch_ms_max"] = maxOf(batchMs)
	r.detail["batch_samples"] = len(batchMs)
	r.metrics["ipukernel.mcells_s"] = float64(cells) / 1e6 / (perJob(exec) * float64(n))
	r.metrics["trace.overhead_ratio"] = traced.Seconds()/plain.Seconds() - 1
	r.detail["staged_jobs"] = n
	return plain.Seconds() / float64(n), nil
}

// exactLayers reports the deterministic per-layer counters over a fixed
// set of golden reports (one per distinct dataset and configuration).
func exactLayers(r *result, goldens []*driver.Report) {
	var cells, theo, hostIn, traceBytes int64
	var races, steals, traced, skipped, peakTrace, batches, deduped, cmps int
	for _, g := range goldens {
		cells += g.Cells
		theo += g.TheoreticalCells
		hostIn += g.HostBytesIn
		traceBytes += g.TracebackBytes
		races += g.Races
		steals += g.StealOps
		traced += g.TracedExtensions
		skipped += g.TraceSkippedExtensions
		peakTrace = max(peakTrace, g.PeakTracebackBytes)
		batches += g.Batches
		deduped += g.DedupedComparisons
		cmps += len(g.Results)
	}
	r.metrics["ipukernel.cells"] = float64(cells)
	r.metrics["ipukernel.cells_per_theoretical"] = ratio(float64(cells), float64(theo))
	r.metrics["ipukernel.race_ratio"] = ratio(float64(races), float64(steals))
	r.metrics["ipukernel.host_mib_in"] = float64(hostIn) / mib
	r.metrics["ipukernel.traced_extensions"] = float64(traced)
	r.metrics["ipukernel.trace_skipped_extensions"] = float64(skipped)
	r.metrics["ipukernel.trace_mib"] = float64(traceBytes) / mib
	r.metrics["ipukernel.peak_trace_kib"] = float64(peakTrace) / 1024
	r.metrics["driver.batches"] = float64(batches)
	r.metrics["driver.dedup_ratio"] = ratio(float64(deduped), float64(cmps))
}

// modeled reports the modeled-clock end-to-end metrics over a set of
// reports: Fig. 5 device-only GCUPS, Fig. 7 wall time with transfers
// (mean per job) and the peak tile SRAM footprint.
func modeled(r *result, reps []*driver.Report) {
	var theo int64
	var device, wall float64
	sram := 0
	for _, g := range reps {
		theo += g.TheoreticalCells
		device += g.DeviceComputeSeconds
		wall += g.WallSeconds
		sram = max(sram, g.MaxSRAM)
	}
	r.metrics["modeled_gcups"] = ratio(float64(theo), device) / 1e9
	r.metrics["modeled_wall_s"] = wall / float64(len(reps))
	r.metrics["modeled_peak_sram_kib"] = float64(sram) / 1024
}

// partitionLayer runs the partition probe three times per dataset and
// reports its time per job, its share of a job's staged wall time, and
// the (exact) item count and reuse factor, which must match the goldens.
// jobWall is the mean untraced staged job time in seconds.
func partitionLayer(r *result, rec *recorder, jobs []stagedJob, jobWall float64) error {
	var secs []float64
	items := 0
	reuse := 0.0
	for _, j := range jobs {
		var t []float64
		for range 3 {
			el, n, rf, err := partitionProbe(j.d, j.cfg, rec)
			if err != nil {
				return fmt.Errorf("partition probe %s: %w", j.label, err)
			}
			t = append(t, el.Seconds())
			items, reuse = items+n, reuse+rf
			r.gate.checks++
			if rf != j.golden.ReuseFactor {
				r.gate.fail("partition probe %s: reuse factor %v, golden %v", j.label, rf, j.golden.ReuseFactor)
			}
		}
		secs = append(secs, median(t))
	}
	r.metrics["partition.s"] = mean(secs)
	r.metrics["partition.items"] = float64(items / 3)
	r.metrics["partition.reuse_factor"] = reuse / float64(3*len(jobs))
	r.metrics["partition.share"] = ratio(mean(secs), jobWall)
	return nil
}

// engineLayer submits jobs straight to an engine while sampling its
// stats, and reports plan-ready and first-update times and the sampled
// occupancy. Every report is gated against its golden.
func engineLayer(ctx context.Context, r *result, eng *engine.Engine, jobs []stagedJob) error {
	s := sampleStats(eng.Stats, 5*time.Millisecond)
	var ready, first []float64
	for _, j := range jobs {
		t, rep, err := engineJob(ctx, eng, j.d)
		if err != nil {
			r.job(false)
			s.stop()
			return fmt.Errorf("engine probe %s: %w", j.label, err)
		}
		r.job(r.gate.sameResults("engine probe "+j.label, rep.Results, j.golden.Results))
		ready = append(ready, ms(t.header.Sub(t.due)))
		first = append(first, t.ttfc())
	}
	s.stop()
	r.metrics["engine.plan_ready_ms_p50"] = median(ready)
	r.metrics["engine.first_update_ms_p50"] = median(first)
	r.metrics["engine.jobs_live_mean"], r.metrics["engine.inflight_batches_mean"] = s.means()
	r.detail["engine_probe_jobs"] = len(jobs)
	return nil
}

// probeLayers runs the single-layer probes shared by every traced run:
// the wire codec on ds (each dataset reps times) and the single-threaded
// core kernels on a sample of ds's comparisons.
func probeLayers(r *result, rec *recorder, ds []*workload.Dataset, reps int, cfg driver.Config) error {
	var wireDs []*workload.Dataset
	for range reps {
		wireDs = append(wireDs, ds...)
	}
	enc, dec, kib, err := wireProbe(wireDs, rec)
	if err != nil {
		return err
	}
	r.metrics["wire.encode_ms_p50"], r.metrics["wire.decode_ms_p50"], r.metrics["wire.payload_kib_p50"] = enc, dec, kib
	r.detail["wire_samples"] = len(wireDs)
	ext, tr, err := coreProbe(ds, cfg, rec)
	if err != nil {
		return err
	}
	r.metrics["core.extend_mcells_s"], r.metrics["core.trace_mcells_s"] = ext, tr
	return nil
}
