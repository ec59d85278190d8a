package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/engine"
	"github.com/sram-align/xdropipu/internal/service"
	"github.com/sram-align/xdropipu/internal/serviceclient"
	"github.com/sram-align/xdropipu/internal/workload"
)

const (
	// maxConns caps the client's HTTP connections; a job waiting for one
	// is still on its latency clock.
	maxConns = 2
	tenant   = "bench"
)

// svc is a loopback alignment service and a client limited to maxConns
// connections.
type svc struct {
	srv    *service.Server
	hs     *http.Server
	tr     *http.Transport
	client *serviceclient.Client
	served chan error
}

// startService starts a one-shard server on a loopback port. The client
// makes a single transport attempt, so a refused (429) job fails instead
// of being retried behind the benchmark's back.
func startService(opts ...engine.Option) (*svc, error) {
	srv := service.New(service.Config{Shards: 1, EngineOptions: opts})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &svc{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.tr = &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	s.client = serviceclient.New("http://"+ln.Addr().String(),
		serviceclient.WithHTTPClient(&http.Client{Transport: s.tr}),
		serviceclient.WithTenant(tenant), serviceclient.WithTransportRetry(1))
	return s, nil
}

// close shuts the listener and the shard engines down and waits for the
// server goroutine.
func (s *svc) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx) // every job has settled; a timeout only means a stuck client, which Close then cancels
	s.srv.Close()
	s.tr.CloseIdleConnections()
	<-s.served
}

func (s *svc) shard() *engine.Engine { return s.srv.Shards()[0] }

// shed returns the jobs the service refused (load shedding or rate
// limiting) for the benchmark's tenant.
func (s *svc) shed(ctx context.Context) (int64, error) {
	var reply struct {
		Tenants map[string]struct{ Shed, RateLimited int64 } `json:"tenants"`
	}
	if err := s.client.Stats(ctx, &reply); err != nil {
		return 0, err
	}
	t := reply.Tenants[tenant]
	return t.Shed + t.RateLimited, nil
}

// remoteJob posts d through the client and follows its result stream;
// the timeline starts at due and the header is the response's.
func remoteJob(ctx context.Context, c *serviceclient.Client, d *workload.Dataset, due time.Time) (jobTiming, *driver.Report, error) {
	t := jobTiming{due: due}
	job, err := c.Submit(ctx, d)
	t.header = time.Now()
	if err != nil {
		t.done = t.header
		return t, nil, err
	}
	rep, err := follow(ctx, job, &t)
	return t, rep, err
}

// serviceSpans records a finished remote job: the job span, its accept
// part (due → stream header) and its stream part (first chunk → final).
func serviceSpans(rec *recorder, id int, t jobTiming) {
	root := rec.add("service.job", 0, id, t.due, t.done)
	rec.add("service.accept", root, id, t.due, t.header)
	rec.add("service.stream", root, id, t.first, t.done)
}

// serviceLayer is the closed workloads' service probe: their jobs sent
// one after another through a loopback service built with opt and a
// result cache, each due when the previous one finished. Every job is
// sent twice, so the first is a cache miss and the second a cache read;
// the cache is sized never to evict.
func serviceLayer(ctx context.Context, r *result, rec *recorder, opt engine.Option, jobs []stagedJob) error {
	entries := 1024
	for _, j := range jobs {
		entries += 2 * len(j.d.Comparisons) // headroom for uneven spread over the cache's shards
	}
	s, err := startService(opt, engine.WithResultCache(entries))
	if err != nil {
		return err
	}
	defer s.close()
	var accept, stream []float64
	due := time.Now()
	for i, j := range append(jobs, jobs...) {
		t, rep, err := remoteJob(ctx, s.client, j.d, due)
		if err != nil {
			r.job(false)
			return fmt.Errorf("service probe %s: %w", j.label, err)
		}
		serviceSpans(rec, i+1, t)
		good := r.gate.sameResults("service probe "+j.label, rep.Results, j.golden.Results)
		r.job(good)
		if good {
			accept = append(accept, ms(t.header.Sub(t.due)))
			stream = append(stream, ms(t.done.Sub(t.first)))
		}
		due = time.Now()
	}
	shed, err := s.shed(ctx)
	if err != nil {
		return err
	}
	st := s.shard().Stats()
	r.gate.checks++
	if st.CacheEvictions != 0 {
		r.gate.fail("result cache evicted %d entries; it is sized never to evict", st.CacheEvictions)
	}
	r.metrics["service.accept_ms_p50"] = median(accept)
	r.metrics["service.stream_ms_p50"] = median(stream)
	r.metrics["service.shed_count"] = float64(shed)
	r.metrics["engine.cache_hit_ratio"] = ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses))
	r.metrics["engine.cache_evictions"] = float64(st.CacheEvictions)
	r.metrics["engine.cache_mib"] = float64(st.CacheBytes) / mib
	r.detail["service_samples"] = len(accept)
	return nil
}
