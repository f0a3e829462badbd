package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsn2015/vdbench"
	"github.com/dsn2015/vdbench/internal/journal"
	"github.com/dsn2015/vdbench/internal/service"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/telemetry"
)

const (
	// serveWarmKeys are computed by the warm-up and replayed at set-up.
	serveWarmKeys = 24
	// serveColdKeys are first submitted inside the window, one in every
	// serveColdEvery requests of a client, until they run out: enough
	// for ten cold samples beyond the reported p90.
	serveColdKeys  = 104
	serveColdEvery = 8
	// serveJournalProbe bounds the journal records a traced run re-appends.
	serveJournalProbe = 400
)

// serveExperiments are the experiments submitted, round robin: they
// cover the campaign tables, the statistics, MCDA and the extensions at
// a cold cost of 15-130 ms each at the quick configuration.
var serveExperiments = []string{"e3", "e4", "e5", "e7", "e8", "e12", "e13", "e16"}

// serveKey is one (experiment, config seed) pair; the rest of the
// config is the service's quick base config.
type serveKey struct {
	Exp  string
	Seed uint64
}

func serveKeys(seed uint64, n int, salt uint64) []serveKey {
	keys := make([]serveKey, n)
	for i := range keys {
		keys[i] = serveKey{serveExperiments[i%len(serveExperiments)], mix(seed, salt+uint64(i))}
	}
	return keys
}

// serveOptions are vdserved's defaults at the quick base config with a
// data directory.
func serveOptions(dataDir string) service.Options {
	return service.Options{
		Workers:    2,
		QueueCap:   64,
		CacheBytes: 256 << 20,
		BaseConfig: vdbench.QuickExperimentConfig(),
		DataDir:    dataDir,
	}
}

// fmtKey is one distinct rendering: a key fetched in one format.
type fmtKey struct {
	key    serveKey
	format string
}

// serveTally aggregates the window's requests as they complete, so the
// benchmark's own memory does not grow with the request count.
type serveTally struct {
	mu                 sync.Mutex
	ops, tracedOps     []float64 // latencies, ms
	coldMs, warmMs     []float64
	hitSubmitUs        []float64
	failed, mismatched int
	served             map[fmtKey][sha256.Size]byte // first body per rendering
}

func (t *serveTally) completed() int { return len(t.ops) + len(t.tracedOps) }

// measureServe drives vdserved's handler on loopback with a closed loop
// of nproc clients. Most submissions repeat a cached key; each result
// is fetched in a rotating format. Every distinct (key, format) result
// must equal vdbench.RunExperimentCtx rendered in that format.
func measureServe(ctx context.Context, r *run) error {
	dataDir := filepath.Join(r.outDir, "data")
	defer os.RemoveAll(dataDir) // the record, spans and profile stay
	opts := serveOptions(dataDir)
	warm := serveKeys(r.seed, serveWarmKeys, 1<<20)
	cold := serveKeys(r.seed, serveColdKeys, 2<<20)

	// Warm-up: compute the warm keys and leave their journal and blobs
	// behind for the set-up to replay.
	svc, err := service.New(opts)
	if err != nil {
		return err
	}
	for _, k := range warm {
		job, err := svc.Submit(k.Exp, serveConfig(opts, k))
		if err == nil {
			if err = job.Wait(ctx); err == nil {
				_, err = job.Result()
			}
		}
		if err != nil {
			svc.Close()
			return fmt.Errorf("warm-up %v: %w", k, err)
		}
	}
	svc.Close()

	// Set-up: service.New replaying that journal, measured inProcessSetupRepeats
	// times; the last instance serves the window.
	for i := 0; i < inProcessSetupRepeats; i++ {
		t0 := time.Now()
		svc, err = service.New(opts)
		if err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		if i+1 < inProcessSetupRepeats {
			svc.Close()
		}
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	reg := svc.Metrics()
	m0 := serviceCounters(reg)
	tally, window, alloc := serveWindow(ctx, r, base, warm, cold)
	r.peakRSSMB = peakRSSMB()
	m1 := serviceCounters(reg)

	shutCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	svc.Close()

	n := tally.completed()
	r.allocBytes = alloc
	r.attempted = n + tally.failed
	r.failed = tally.failed + tally.mismatched
	if tally.mismatched > 0 {
		r.fail("%d requests returned a different body than an earlier request for the same rendering", tally.mismatched)
	}
	r.ops, r.tracedOps = tally.ops, tally.tracedOps
	named := func(name string, xs []float64, q float64) {
		r.named[name] = metric{quantile(xs, q), "ms"}
		r.named[name+"_samples"] = metric{float64(len(xs)), "count"}
	}
	named("serve_cold_p50_ms", tally.coldMs, 0.5)
	named("serve_cold_p90_ms", tally.coldMs, 0.9)
	named("serve_warm_p50_ms", tally.warmMs, 0.5)
	named("serve_warm_p99_ms", tally.warmMs, 0.99)
	r.named["serve_jobs_per_s"] = metric{float64(n) / window.Seconds(), "1/s"}
	r.named["serve_repeated_key_share"] = metric{float64(len(tally.warmMs)) / math.Max(1, float64(n)), "ratio"}

	if err := checkServe(ctx, r, opts, tally.served); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	sum := r.tr.summarize()
	renderLayers(r, sum)
	r.layer["service.submit_hit.busy_us"] = median(tally.hitSubmitUs)
	r.layer["service.cache_hit_ratio"] = ratio(m1.hits-m0.hits, m1.misses-m0.misses)
	r.layer["service.collapsed"] = float64(m1.collapsed - m0.collapsed)
	r.layer["journal.appends"] = float64(m1.records-m0.records) / float64(n)
	if runs := m1.campaigns - m0.campaigns; runs > 0 && len(tally.coldMs) > 0 {
		exec := (m1.campaignSum - m0.campaignSum) / float64(runs) * 1e3
		r.layer["service.queue_wait_ms"] = math.Max(0, mean(tally.coldMs)-exec)
	}
	return probeJournal(r, dataDir)
}

func serveConfig(opts service.Options, k serveKey) vdbench.ExperimentConfig {
	cfg := opts.BaseConfig
	cfg.Seed = k.Seed
	return cfg
}

// serveWindow runs the closed loop for the run's window and returns the
// tally, the wall time and the bytes allocated.
func serveWindow(ctx context.Context, r *run, base string, warm, cold []serveKey) (*serveTally, time.Duration, uint64) {
	clients := runtime.NumCPU()
	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
		Timeout:   60 * time.Second,
	}
	defer hc.CloseIdleConnections()
	formats := vdbench.ResultFormats()

	tally := &serveTally{served: map[fmtKey][sha256.Size]byte{}}
	var (
		available = append([]serveKey(nil), warm...) // keys known to be cached, under tally.mu
		known     = map[serveKey]bool{}
		nextCold  atomic.Int64
		nextFmt   atomic.Int64
		wg        sync.WaitGroup
	)
	for _, k := range warm {
		known[k] = true
	}
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	a0, t0 := memAlloc(), time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := stats.NewRNG(mix(r.seed, 3<<20+uint64(c)))
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				var key serveKey
				if n := nextCold.Load(); i%serveColdEvery == 0 && n < int64(len(cold)) && nextCold.CompareAndSwap(n, n+1) {
					key = cold[n]
				} else {
					tally.mu.Lock()
					key = available[rng.Intn(len(available))]
					tally.mu.Unlock()
				}
				format := formats[int(nextFmt.Add(1))%len(formats)]
				tr := r.traceOp(i)
				s, err := serveRequest(ctx, hc, tr, base, key, format)
				tally.mu.Lock()
				if err != nil {
					tally.failed++
					r.fail("%v %s: %v", key, format, err)
				} else {
					tally.add(s, tr != nil)
					if !known[key] {
						known[key] = true
						available = append(available, key)
					}
				}
				tally.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return tally, time.Since(t0), memAlloc() - a0
}

// serveResult is one completed request.
type serveResult struct {
	key     fmtKey
	cached  bool
	latency time.Duration
	submit  time.Duration
	bodySum [sha256.Size]byte
}

// add folds one request into the tally; callers hold t.mu. Two requests
// for the same rendering must return the same body.
func (t *serveTally) add(s serveResult, traced bool) {
	ms := float64(s.latency.Nanoseconds()) / 1e6
	if traced {
		t.tracedOps = append(t.tracedOps, ms)
	} else {
		t.ops = append(t.ops, ms)
	}
	if s.cached {
		t.warmMs = append(t.warmMs, ms)
		t.hitSubmitUs = append(t.hitSubmitUs, float64(s.submit.Nanoseconds())/1e3)
	} else {
		t.coldMs = append(t.coldMs, ms)
	}
	if prev, seen := t.served[s.key]; !seen {
		t.served[s.key] = s.bodySum
	} else if prev != s.bodySum {
		t.mismatched++
	}
}

// serveRequest submits one job and fetches its result: the latency a
// vdserved client sees from submission to the rendered result.
func serveRequest(ctx context.Context, hc *http.Client, tr *tracer, base string, key serveKey, format string) (serveResult, error) {
	s := serveResult{key: fmtKey{key, format}}
	body, err := json.Marshal(service.SubmitRequest{Experiment: key.Exp, Seed: &key.Seed})
	if err != nil {
		return s, err
	}
	op := tr.start("op", -1)
	defer tr.stop(op)
	t0 := time.Now()
	var st service.JobStatus
	err = tr.do("service.submit", op, func() error {
		return httpDo(ctx, hc, http.MethodPost, base+"/v1/jobs", body, http.StatusAccepted, func(b []byte) error {
			return json.Unmarshal(b, &st)
		})
	})
	if err != nil {
		return s, err
	}
	s.submit = time.Since(t0)
	s.cached = st.Cached
	err = tr.do("service.result", op, func() error {
		return httpDo(ctx, hc, http.MethodGet, base+"/v1/jobs/"+st.ID+"/result?wait=60s&format="+format, nil, http.StatusOK, func(b []byte) error {
			s.bodySum = sha256.Sum256(b)
			return nil
		})
	})
	s.latency = time.Since(t0)
	return s, err
}

// httpDo performs one request and hands the body of a response with the
// wanted status to read.
func httpDo(ctx context.Context, hc *http.Client, method, url string, body []byte, want int, read func([]byte) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return read(data)
}

// checkServe recomputes every distinct key outside the window and
// compares each served rendering with the reference rendering.
func checkServe(ctx context.Context, r *run, opts service.Options, served map[fmtKey][sha256.Size]byte) error {
	byKey := map[serveKey][]string{}
	for fk := range served {
		byKey[fk.key] = append(byKey[fk.key], fk.format)
	}
	var mu sync.Mutex
	errs := make(chan error, len(byKey))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for k, formats := range byKey {
		wg.Add(1)
		sem <- struct{}{}
		go func(k serveKey, formats []string) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := vdbench.RunExperimentCtx(ctx, k.Exp, serveConfig(opts, k))
			if err != nil {
				errs <- err
				return
			}
			for _, f := range formats {
				var text string
				err := r.tr.do("report.render."+f, -1, func() error {
					var err error
					text, err = res.Render(f)
					return err
				})
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				r.renders++
				r.renderBytes += len(text)
				if sha256.Sum256([]byte(text)) != served[fmtKey{k, f}] {
					r.failed++
					r.fail("%v %s: served result differs from RunExperimentCtx", k, f)
				}
				mu.Unlock()
			}
		}(k, formats)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// serviceCounters reads the service registry's counters the per-layer
// metrics are derived from.
type svcCounters struct {
	hits, misses, collapsed, records, campaigns uint64
	campaignSum                                 float64
}

func serviceCounters(reg *telemetry.Registry) svcCounters {
	h := reg.Histogram("vd_campaign_seconds", "")
	return svcCounters{
		hits:        reg.Counter("vd_cache_hits_total", "").Value(),
		misses:      reg.Counter("vd_cache_misses_total", "").Value(),
		collapsed:   reg.Counter("vd_singleflight_collapsed_total", "").Value(),
		records:     reg.Counter("vd_journal_records_total", "").Value(),
		campaigns:   h.Count(),
		campaignSum: h.Sum(),
	}
}

// probeJournal times the journal layer's public calls on what the window
// left behind: replaying the journal, reading every result blob, then
// re-appending the records and re-writing the blobs into a fresh store.
func probeJournal(r *run, dataDir string) error {
	tr := r.tr
	var records []journal.Record
	err := tr.do("journal.replay", -1, func() error {
		j, recs, _, err := journal.Open(filepath.Join(dataDir, "journal.jsonl"))
		if err != nil {
			return err
		}
		records = recs
		return j.Close()
	})
	if err != nil {
		return err
	}
	store, err := journal.OpenStore(filepath.Join(dataDir, "results"))
	if err != nil {
		return err
	}
	keys, err := store.Keys()
	if err != nil {
		return err
	}
	blobs := make(map[string][]byte, len(keys))
	for _, k := range keys {
		err := tr.do("journal.blob_get", -1, func() error {
			data, ok := store.Get(k)
			if !ok {
				return fmt.Errorf("blob %s unreadable", k)
			}
			blobs[k] = data
			return nil
		})
		if err != nil {
			return err
		}
	}
	probeDir := filepath.Join(r.outDir, "journal-probe")
	if err := os.MkdirAll(probeDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(probeDir)
	j, _, _, err := journal.Open(filepath.Join(probeDir, "journal.jsonl"))
	if err != nil {
		return err
	}
	var appendUs []float64
	for i, rec := range records {
		if i == serveJournalProbe {
			break
		}
		t0 := time.Now()
		if err := tr.do("journal.append", -1, func() error { return j.Append(rec) }); err != nil {
			j.Close()
			return err
		}
		appendUs = append(appendUs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if err := j.Close(); err != nil {
		return err
	}
	out, err := journal.OpenStore(filepath.Join(probeDir, "results"))
	if err != nil {
		return err
	}
	for k, data := range blobs {
		if err := tr.do("journal.blob_put", -1, func() error { return out.Put(k, data) }); err != nil {
			return err
		}
	}
	sum := tr.summarize()
	r.layer["journal.append.busy_us.p50"] = median(appendUs)
	r.layer["journal.append.busy_us.p99"] = quantile(appendUs, 0.99)
	r.layer["journal.replay.busy_ms"] = sum.Busy["journal.replay"] * 1e3
	if n := sum.Calls["journal.blob_get"]; n > 0 {
		r.layer["journal.blob_get.busy_us"] = sum.Busy["journal.blob_get"] / float64(n) * 1e6
	}
	if n := sum.Calls["journal.blob_put"]; n > 0 {
		r.layer["journal.blob_put.busy_ms"] = sum.Busy["journal.blob_put"] / float64(n) * 1e3
	}
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
