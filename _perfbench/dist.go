package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/dist"
	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/workload"
)

// cluster is a coordinator on loopback with nproc in-process workers,
// each configured as `vdserved -worker -join <coordinator>` configures
// it.
type cluster struct {
	coord   *dist.Coordinator
	srv     *http.Server
	served  chan error
	url     string
	stop    context.CancelFunc
	workers sync.WaitGroup
}

// startCluster starts the coordinator and the workers and returns once
// every worker has registered. rt, when set, observes the workers' HTTP
// traffic (traced runs).
func startCluster(ctx context.Context, n int, rt http.RoundTripper) (*cluster, error) {
	coord := dist.NewCoordinator(dist.CoordinatorOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = coord.Close()
		return nil, err
	}
	c := &cluster{
		coord:  coord,
		srv:    &http.Server{Handler: coord.Handler(), ReadHeaderTimeout: 5 * time.Second},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
	}
	go func() { c.served <- c.srv.Serve(ln) }()
	wctx, stop := context.WithCancel(ctx)
	c.stop = stop
	workers := make([]*dist.Worker, n)
	for i := range workers {
		opts := dist.WorkerOptions{Join: c.url}
		if rt != nil {
			opts.HTTPClient = &http.Client{Transport: rt}
		}
		workers[i] = dist.NewWorker(opts)
		c.workers.Add(1)
		go func(wk *dist.Worker) {
			defer c.workers.Done()
			_ = wk.Run(wctx) // returns nil once wctx is cancelled
		}(workers[i])
	}
	for {
		ready := 0
		for _, wk := range workers {
			if wk.Ready() {
				ready++
			}
		}
		if ready == n {
			return c, nil
		}
		if err := ctx.Err(); err != nil {
			c.close()
			return nil, err
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// close stops the workers, then the server and the coordinator, and
// waits for all of them.
func (c *cluster) close() error {
	c.stop()
	c.workers.Wait()
	err := c.srv.Close()
	if serr := <-c.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := c.coord.Close(); err == nil {
		err = cerr
	}
	return err
}

// distObserver records the dist protocol traffic of a traced run: when
// a worker's pull first returns a shard, and how many bytes the shard
// reports carry.
type distObserver struct {
	base http.RoundTripper

	mu          sync.Mutex
	firstLease  time.Time
	reportBytes int64
}

func (o *distObserver) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := o.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	switch {
	case strings.HasSuffix(req.URL.Path, "/pull") && resp.StatusCode == http.StatusOK && o.firstLease.IsZero():
		o.firstLease = time.Now()
	case strings.HasSuffix(req.URL.Path, "/result") && req.Method == http.MethodPost:
		o.reportBytes += req.ContentLength
	}
	return resp, nil
}

// reset starts observing a new campaign.
func (o *distObserver) reset() {
	o.mu.Lock()
	o.firstLease, o.reportBytes = time.Time{}, 0
	o.mu.Unlock()
}

// cellsObserver records when the client has read the merged campaign's
// cell grid; what follows until RunCampaign returns is the local merge.
type cellsObserver struct {
	base http.RoundTripper

	mu   sync.Mutex
	read time.Time
}

func (o *cellsObserver) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := o.base.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/cells") {
		resp.Body = &closeNotify{ReadCloser: resp.Body, done: func() {
			o.mu.Lock()
			o.read = time.Now()
			o.mu.Unlock()
		}}
	}
	return resp, err
}

type closeNotify struct {
	io.ReadCloser
	done func()
}

func (c *closeNotify) Close() error {
	c.done()
	return c.ReadCloser.Close()
}

// tracedSuite is the standard suite with every detector call a span.
const tracedSuite = "perfbench-traced"

// measureDist runs the campaign-scale campaign through a dist client
// against the cluster, back to back. Every merged campaign must equal a
// local harness.RunCtx of the same spec.
func measureDist(ctx context.Context, r *run) error {
	n := runtime.NumCPU()
	var obs *distObserver
	var rt http.RoundTripper
	if r.tr != nil {
		obs = &distObserver{base: http.DefaultTransport}
		rt = obs
	}
	var c *cluster
	for i := 0; i < inProcessSetupRepeats; i++ {
		t0 := time.Now()
		var err error
		if c, err = startCluster(ctx, n, rt); err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		if i+1 < inProcessSetupRepeats {
			if err := c.close(); err != nil {
				return err
			}
		}
	}
	defer c.close()

	var slot atomic.Int64
	suite := "standard"
	if r.tr != nil {
		suite = tracedSuite
		err := dist.RegisterSuite(tracedSuite, func() ([]detectors.Tool, error) {
			tools, err := detectors.StandardSuite()
			return timeTools(tools, r.tr, &slot), err
		})
		if err != nil {
			return err
		}
	}
	tools, err := detectors.StandardSuite()
	if err != nil {
		return err
	}
	cells := &cellsObserver{base: http.DefaultTransport}
	client := dist.NewClient(c.url)
	client.HTTPClient = &http.Client{Transport: cells}
	var campaignS, idle, merge, shards, bytes []float64
	type pending struct {
		spec    dist.CampaignSpec
		results []harness.ToolResult
		corpus  workload.Config
	}
	var checks []pending
	err = r.loop(ctx, func(i int, tr *tracer) (func(), error) {
		op := tr.start("op", -1)
		defer tr.stop(op)
		wcfg := scaleCorpusConfig(r.seed, i)
		spec := dist.CampaignSpec{Workload: wcfg, Suite: "standard", Options: scaleOptions(wcfg)}
		completed := c.coord.Registry().Counter("vd_dist_shards_completed_total", "")
		shards0 := completed.Value()
		if tr != nil {
			spec.Suite = suite
			obs.reset()
		}
		slot.Store(int64(op))
		t0 := time.Now()
		camp, err := client.RunCampaign(ctx, spec)
		if err != nil {
			return nil, err
		}
		done := time.Now()
		campaignS = append(campaignS, done.Sub(t0).Seconds())
		if tr != nil {
			obs.mu.Lock()
			idle = append(idle, obs.firstLease.Sub(t0).Seconds())
			shards = append(shards, float64(completed.Value()-shards0))
			bytes = append(bytes, float64(obs.reportBytes))
			first := obs.firstLease
			obs.mu.Unlock()
			tr.add("dist.pull_idle", t0, first, op)
			cells.mu.Lock()
			merge = append(merge, done.Sub(cells.read).Seconds())
			tr.add("dist.merge", cells.read, done, op)
			cells.mu.Unlock()
		}
		// The check runs after the window: anything between two campaigns
		// would shift the workers' poll phase and with it the idle wait
		// every campaign starts with.
		// Only the results are kept; the corpus is compared by its config
		// so that the held campaigns do not pin every corpus in memory.
		checks = append(checks, pending{spec, camp.Results, camp.Corpus.Config})
		return nil, nil
	})
	if err != nil {
		return err
	}
	for _, p := range checks {
		checkDist(ctx, r, p.spec, tools, p.results, p.corpus)
	}
	r.named["dist_campaign_s"] = metric{median(campaignS), "s"}
	if r.tr == nil {
		return nil
	}
	sum := r.tr.summarize()
	busyLayers(r, sum, float64(len(r.tracedOps)))
	r.layer["dist.pull_idle_s"] = median(idle)
	r.layer["dist.merge.busy_s"] = median(merge)
	delete(r.layer, "dist.pull_idle.busy_s")
	r.layer["dist.shards"] = median(shards)
	r.layer["dist.cells_bytes"] = median(bytes)
	r.layer["harness.cells"] = float64(scaleServices * len(tools))
	return nil
}

// checkDist compares a merged campaign with a local run of its spec.
func checkDist(ctx context.Context, r *run, spec dist.CampaignSpec, tools []detectors.Tool, results []harness.ToolResult, corpus workload.Config) {
	local, err := workload.Generate(spec.Workload)
	if err == nil {
		var want *harness.Campaign
		want, err = harness.RunCtx(ctx, local, tools, spec.Options)
		if err == nil && (!reflect.DeepEqual(want.Results, results) || !reflect.DeepEqual(want.Corpus.Config, corpus)) {
			err = fmt.Errorf("merged campaign differs from the local run")
		}
	}
	if err != nil {
		r.failed++
		r.fail("seed %d: %v", spec.Workload.Seed, err)
	}
}
