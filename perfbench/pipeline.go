package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sram-align/xdropipu"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/partition"
	"github.com/sram-align/xdropipu/internal/service/wire"
	"github.com/sram-align/xdropipu/internal/workload"
)

// Span names of the staged driver pipeline.
const (
	spanJob      = "job"
	spanBuild    = "driver.BuildBatches"
	spanExec     = "ipukernel.exec"
	spanBatch    = "ipukernel.ExecBatch"
	spanAssemble = "driver.AssemblePlan+Schedule"
)

// staged runs one job through the driver's staged public API —
// BuildBatches, ExecBatch on a GOMAXPROCS worker pool (one span per
// batch), AssemblePlan, Schedule — the same stages driver.Run composes.
// It returns the report and the job's wall time.
func staged(ctx context.Context, d *workload.Dataset, cfg driver.Config, rec *recorder, job int) (*driver.Report, time.Duration, error) {
	start := time.Now()
	root := rec.begin(spanJob, 0, job)
	sp := rec.begin(spanBuild, root, job)
	bp, err := driver.BuildBatches(ctx, d, cfg)
	rec.end(sp)
	if err != nil {
		return nil, 0, err
	}

	outs := make([]*ipukernel.BatchResult, bp.Batches())
	errs := make([]error, bp.Batches())
	workers := max(1, min(runtime.GOMAXPROCS(0), bp.Batches()))
	kcfg := bp.KernelConfig(workers)
	ex := rec.begin(spanExec, root, job)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev := bp.NewDevice()
			for {
				bi := int(cursor.Add(1)) - 1
				if bi >= len(outs) {
					return
				}
				b := rec.begin(spanBatch, ex, job)
				outs[bi], errs[bi] = bp.ExecBatch(dev, bi, kcfg)
				rec.end(b)
			}
		}()
	}
	wg.Wait()
	rec.end(ex)
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}

	as := rec.begin(spanAssemble, root, job)
	plan, err := driver.AssemblePlan(bp, outs)
	if err != nil {
		return nil, 0, err
	}
	rep := plan.Schedule(cfg.IPUs)
	rec.end(as)
	rec.end(root)
	return rep, time.Since(start), nil
}

// jobTiming is one job's host-clock timeline. due is when the job was
// due to be sent; header when its stream opened (engine: Results
// returned, i.e. the plan was built; service: the response header
// arrived); first when its first result chunk arrived; done when its
// final report did.
type jobTiming struct {
	due, header, first, done time.Time
}

func (t jobTiming) latency() float64 { return ms(t.done.Sub(t.due)) }
func (t jobTiming) ttfc() float64    { return ms(t.first.Sub(t.due)) }

// streamed is the stream/join surface shared by an in-process engine
// job and a remote service job.
type streamed interface {
	Results() <-chan engine.Update
	Wait(context.Context) (*driver.Report, error)
}

// follow drains a submitted job's result stream and waits for its
// report, filling in t's header (unless set: an engine job's stream
// opens once its plan is built), first-chunk and done times.
func follow(ctx context.Context, j streamed, t *jobTiming) (*driver.Report, error) {
	updates := j.Results()
	if t.header.IsZero() {
		t.header = time.Now()
	}
	for range updates {
		if t.first.IsZero() {
			t.first = time.Now()
		}
	}
	rep, err := j.Wait(ctx)
	t.done = time.Now()
	if t.first.IsZero() {
		t.first = t.done
	}
	return rep, err
}

// engineJob submits d to eng and follows its stream to the final report.
func engineJob(ctx context.Context, eng *engine.Engine, d *workload.Dataset) (jobTiming, *driver.Report, error) {
	t := jobTiming{due: time.Now()}
	job, err := eng.Submit(ctx, d)
	if err != nil {
		return t, nil, err
	}
	rep, err := follow(ctx, job, &t)
	return t, rep, err
}

// sampler polls engine stats on a fixed period until stopped.
type sampler struct {
	stopCh, done   chan struct{}
	live, inflight []float64
}

func sampleStats(stats func() engine.Stats, every time.Duration) *sampler {
	s := &sampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
				st := stats()
				s.live = append(s.live, float64(st.JobsLive))
				s.inflight = append(s.inflight, float64(st.InflightBatches))
			}
		}
	}()
	return s
}

// stop ends sampling and waits for the sampler to exit.
func (s *sampler) stop() {
	close(s.stopCh)
	<-s.done
}

func (s *sampler) means() (live, inflight float64) {
	if len(s.live) == 0 {
		return 0, 0
	}
	return mean(s.live), mean(s.inflight)
}

// partitionProbe re-runs the partitioning stage of BuildBatches on the
// same inputs — DeriveSeqBudget → BuildItems → MakeBatchesFanout — and
// returns its time, item count and reuse factor.
func partitionProbe(d *workload.Dataset, cfg driver.Config, rec *recorder) (time.Duration, int, float64, error) {
	cfg = cfg.Normalized()
	start := time.Now()
	sp := rec.begin("partition.probe", 0, 0)
	defer rec.end(sp)
	budget := cfg.SeqBudget
	if budget <= 0 {
		var err error
		if budget, err = partition.DeriveSeqBudget(d, cfg.Kernel, cfg.Model); err != nil {
			return 0, 0, 0, err
		}
	}
	tiles := cfg.EffectiveTiles()
	maxCmps := 0
	if target := tiles * cfg.SpreadFactor; target > 0 && len(d.Comparisons) > 0 {
		maxCmps = max(1, (len(d.Comparisons)+target-1)/target)
	}
	items := partition.BuildItems(d, partition.Options{SeqBudget: budget, Reuse: cfg.Partition, MaxCmps: maxCmps})
	if _, err := partition.MakeBatchesFanout(d, items, tiles, cfg.Kernel, cfg.Model, cfg.MaxBatchJobs, nil); err != nil {
		return 0, 0, 0, err
	}
	return time.Since(start), len(items), partition.ReuseFactor(d, items), nil
}

// coreProbe times single-threaded seed extensions (xdropipu.ExtendSeed)
// and tracebacks (xdropipu.TracebackSeed) over a fixed sample of the
// workload's comparisons and returns both rates in Mcells/s (the cells
// are the score pass's computed cells in both cases).
func coreProbe(ds []*workload.Dataset, cfg driver.Config, rec *recorder) (extend, trace float64, err error) {
	p := cfg.Normalized().Kernel.Params
	type pair struct {
		h, v []byte
		s    xdropipu.Seed
	}
	var sample []pair
	per := max(1, 64/len(ds))
	for _, d := range ds {
		for _, row := range sampleRows(len(d.Comparisons), per) {
			c := d.Comparisons[row]
			sample = append(sample, pair{d.Sequences[c.H], d.Sequences[c.V], seedOf(c)})
		}
	}
	const passes = 3
	var cells int64
	var extendT, traceT []float64
	for range passes {
		sp := rec.begin("core.ExtendSeed", 0, 0)
		start := time.Now()
		cells = 0
		for _, s := range sample {
			r, err := xdropipu.ExtendSeed(s.h, s.v, s.s, p)
			if err != nil {
				return 0, 0, err
			}
			cells += r.Stats.Cells
		}
		extendT = append(extendT, time.Since(start).Seconds())
		rec.end(sp)
		sp = rec.begin("core.TracebackSeed", 0, 0)
		start = time.Now()
		for _, s := range sample {
			if _, _, err := xdropipu.TracebackSeed(s.h, s.v, s.s, p); err != nil {
				return 0, 0, err
			}
		}
		traceT = append(traceT, time.Since(start).Seconds())
		rec.end(sp)
	}
	return float64(cells) / 1e6 / median(extendT), float64(cells) / 1e6 / median(traceT), nil
}

// wireProbe times the service codec on job datasets: encode, decode
// (checking the round trip reproduces the comparison count) and the
// payload size.
func wireProbe(ds []*workload.Dataset, rec *recorder) (encMs, decMs, kib float64, err error) {
	var enc, dec, size []float64
	for i, d := range ds {
		sp := rec.begin("wire.EncodeDataset", 0, i)
		start := time.Now()
		p, err := wire.EncodeDataset(d)
		enc = append(enc, ms(time.Since(start)))
		rec.end(sp)
		if err != nil {
			return 0, 0, 0, err
		}
		sp = rec.begin("wire.DecodeDataset", 0, i)
		start = time.Now()
		back, err := wire.DecodeDataset(p)
		dec = append(dec, ms(time.Since(start)))
		rec.end(sp)
		if err != nil {
			return 0, 0, 0, err
		}
		if len(back.Comparisons) != len(d.Comparisons) {
			return 0, 0, 0, fmt.Errorf("wire round trip of %s: %d comparisons, want %d", d.Name, len(back.Comparisons), len(d.Comparisons))
		}
		size = append(size, float64(len(p))/1024)
	}
	return median(enc), median(dec), median(size), nil
}
