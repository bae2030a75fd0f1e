package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mdacache/internal/core"
	"mdacache/internal/obs"
	"mdacache/internal/serve"
	"mdacache/internal/stats"
	"mdacache/internal/workloads"
)

const (
	// serveJobs is the number of jobs in one serve pass; two specs each.
	serveJobs = 210
	// serveClients closed-loop clients share the jobs.
	serveClients = 2
	serveScale   = 16
)

// servePool is the fixed pool the jobs' specs are drawn from: every kernel
// and design at N=16 with three LLC sizes. The specs are this small so that
// the daemon's own path, not the simulations, takes most of the time.
func servePool() []serve.SpecRequest {
	var pool []serve.SpecRequest
	for _, b := range workloads.Names {
		for _, d := range core.DesignNames() {
			for _, llc := range []int{1024, 2048, 4096} {
				pool = append(pool, serve.SpecRequest{Bench: b, Design: d, N: 16, LLCKB: llc, Scale: serveScale})
			}
		}
	}
	return pool
}

// serveJobList draws the pass's jobs from the pool. Of the 2·serveJobs spec
// slots, exactly len(pool) are first uses, one per pool spec, so every pass
// simulates the same set of specs whatever the seed; the other slots (about
// three quarters) repeat a spec drawn from those already used. The seed
// chooses the order of first uses, which slots they take and the repeats.
func serveJobList(seed uint64) []serve.SubmitRequest {
	pool := servePool()
	rng := rand.New(rand.NewPCG(seed, 0x5e))
	order := rng.Perm(len(pool))
	slots := 2 * serveJobs
	fresh := make([]bool, slots)
	fresh[0] = true // nothing to repeat yet
	for _, i := range rng.Perm(slots - 1)[:len(pool)-1] {
		fresh[i+1] = true
	}
	var used []serve.SpecRequest
	jobs := make([]serve.SubmitRequest, serveJobs)
	for s := 0; s < slots; s++ {
		var spec serve.SpecRequest
		if fresh[s] {
			spec = pool[order[len(used)]]
			used = append(used, spec)
		} else {
			spec = used[rng.IntN(len(used))]
		}
		jobs[s/2].Specs = append(jobs[s/2].Specs, spec)
	}
	return jobs
}

// jobTrace is what a traced pass learns about one job.
type jobTrace struct {
	submitMS, queueMS, runMS, notifyMS float64
	runs, cached                       int
	deduped                            bool
}

// lineCounter counts the lines written to it: the client's retry log.
type lineCounter struct{ n atomic.Int64 }

func (c *lineCounter) Write(p []byte) (int, error) {
	for _, b := range p {
		if b == '\n' {
			c.n.Add(1)
		}
	}
	return len(p), nil
}

// servePass runs the jobs against an in-process daemon on loopback with two
// closed-loop clients. Set-up is serve.New plus the listener.
//
// The daemon keeps its jobs in memory (no StateDir). With a state directory
// every job costs about ten fsyncs, and on a shared disk their latency
// varied between runs by up to 2.7× in wall time, far beyond any bound a
// regression gate could use.
func servePass(seed uint64, pr probe) (*passResult, error) {
	res := &passResult{Workload: "serve", Traced: pr.rec != nil, Layer: map[string]float64{}}
	jobs := serveJobList(seed)
	t0 := time.Now()
	end, _ := pr.rec.begin("serve.new", "", 0)
	srv, err := serve.New(serve.Options{MaxActive: 1, Workers: 1})
	end()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // no job was ever submitted
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	res.SetupS = time.Since(t0).Seconds()

	transport := &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}
	retries := &lineCounter{}
	client := &serve.Client{
		Nodes: []string{"http://" + ln.Addr().String()},
		HTTP:  &http.Client{Transport: transport},
		Log:   retries,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	res.Ops = make([]opResult, len(jobs))
	traces := make([]jobTrace, len(jobs))
	// Each pool spec is counted once, however many jobs repeat it: the
	// simulated counts and ops are those of the specs the daemon had to
	// simulate, the same set for every seed.
	var (
		next     atomic.Int64
		countsMu sync.Mutex
		counts   simCounts
		seen     = map[string]bool{}
	)
	addRun := func(key string, cycles uint64, m obs.Snapshot) {
		countsMu.Lock()
		defer countsMu.Unlock()
		if !seen[key] {
			seen[key] = true
			counts.addSnapshot(cycles, m)
		}
	}
	err = measure(res, pr, func() error {
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(jobs) {
						return
					}
					res.Ops[i], traces[i] = runJob(ctx, client, jobs[i], pr, addRun)
				}
			}()
		}
		wg.Wait()
		return nil
	})

	transport.CloseIdleConnections()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	serr := srv.Shutdown(sctx)
	if herr := hs.Shutdown(sctx); serr == nil {
		serr = herr
	}
	if herr := <-served; serr == nil && !errors.Is(herr, http.ErrServerClosed) {
		serr = herr
	}
	if err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	res.SimOps = counts.ops()
	res.SimS = res.WallS
	counts.into(res.Layer)
	if pr.rec != nil {
		serveLayer(res.Layer, traces, retries.n.Load())
	}
	return res, nil
}

// runJob submits one job and watches it to its terminal state; addRun
// receives each run's key and result. The latency is submit to terminal as the
// client sees it.
func runJob(ctx context.Context, c *serve.Client, req serve.SubmitRequest, pr probe, addRun func(string, uint64, obs.Snapshot)) (opResult, jobTrace) {
	var op opResult
	var jt jobTrace
	t0 := time.Now()
	end, _ := pr.rec.begin("serve.submit", "", 0)
	sub, err := c.Submit(ctx, req)
	end()
	jt.submitMS = float64(time.Since(t0).Microseconds()) / 1e3
	if err != nil {
		op.Err = err.Error()
		return op, jt
	}
	jt.deduped = sub.Deduped
	end, _ = pr.rec.begin("serve.watch", sub.ID, 0)
	var final serve.State
	runs := make([]output, len(req.Specs))
	err = c.Watch(ctx, sub.ID, 0, func(ev serve.JobEvent) error {
		switch {
		case ev.Type == "run" && ev.Run != nil:
			r := ev.Run
			if r.Err != "" {
				return fmt.Errorf("run %s: %s", r.Spec, r.Err)
			}
			if r.Index < 0 || r.Index >= len(runs) || r.Metrics == nil {
				return fmt.Errorf("run event %d of %s is malformed", r.Index, r.Spec)
			}
			out, err := outputOf(r.Spec, r.Cycles, *r.Metrics)
			if err != nil {
				return err
			}
			runs[r.Index] = out
			addRun(r.Spec, r.Cycles, *r.Metrics)
			jt.runs++
			if r.Cached {
				jt.cached++
			}
		case ev.Type == "state" && ev.State.Terminal():
			final = ev.State
		}
		return nil
	})
	end()
	seen := time.Now()
	op.LatMS = float64(seen.Sub(t0).Microseconds()) / 1e3
	switch {
	case err != nil:
		op.Err = err.Error()
	case final != serve.StateDone:
		op.Err = fmt.Sprintf("job %s ended %s", sub.ID, final)
	}
	op.Outputs = runs
	if pr.rec != nil && op.Err == "" {
		end, _ = pr.rec.begin("serve.status", sub.ID, 0)
		st, err := c.Status(ctx, sub.ID, false)
		end()
		if err != nil {
			op.Err = err.Error()
			return op, jt
		}
		jt.queueMS = float64(st.StartedMS - st.CreatedMS)
		jt.runMS = float64(st.FinishedMS - st.StartedMS)
		jt.notifyMS = float64(seen.UnixMilli() - st.FinishedMS)
	}
	return op, jt
}

// serveLayer writes the serve per-layer metrics: medians over jobs for the
// times, shares over runs and submissions for the ratios.
func serveLayer(m map[string]float64, traces []jobTrace, retries int64) {
	var submit, queue, run, notify []float64
	var runs, cached, deduped int
	for _, t := range traces {
		submit = append(submit, t.submitMS)
		queue = append(queue, t.queueMS)
		run = append(run, t.runMS)
		notify = append(notify, t.notifyMS)
		runs += t.runs
		cached += t.cached
		if t.deduped {
			deduped++
		}
	}
	m["serve.submit_ms"] = stats.Median(submit)
	m["serve.queue_wait_ms"] = stats.Median(queue)
	m["serve.run_ms"] = stats.Median(run)
	m["serve.notify_ms"] = stats.Median(notify)
	m["serve.spec_cache_hit_ratio"] = ratio(uint64(cached), uint64(runs))
	m["serve.deduped_ratio"] = ratio(uint64(deduped), uint64(len(traces)))
	m["serve.retries"] = float64(retries)
}
