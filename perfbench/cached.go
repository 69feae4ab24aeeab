package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"laperm/internal/serve"
	"laperm/internal/spec"
)

// runs-cached: a closed loop of 2 clients against a warm cache. Each
// operation is a cache-hit client.Run of one of 48 tiny specs (16 workloads
// × 3 models, rr) followed by a GET of its result.json. It is a closed loop
// because lapermd callers block on the reply.

// cachedSetups is how many times a run repeats the set-up (server start on
// a fresh cache directory plus warm-up), so setup_s is a median.
const cachedSetups = 5

func cachedSpecs() []spec.RunSpec {
	var specs []spec.RunSpec
	for _, w := range tinyWorkloads {
		for _, m := range tinyModels {
			specs = append(specs, spec.RunSpec{Workload: w, Scale: "tiny", Model: m, Scheduler: "rr"})
		}
	}
	return specs
}

// warmUp runs every spec once through the service and returns each
// result.json by run ID. All specs are submitted first, in the seed's order,
// so the server's workers run them back to back; then 2 client goroutines
// wait for each run and fetch its result.
func warmUp(svc *service, specs []spec.RunSpec, ids []string, order []int) (map[string][]byte, error) {
	ctx := context.Background()
	for _, k := range order {
		if _, err := svc.client.Submit(ctx, specs[k]); err != nil {
			return nil, fmt.Errorf("warm-up submit %s: %w", specs[k].Workload, err)
		}
	}
	results := make([][]byte, len(specs))
	errs := make([]error, clientConns)
	var wg sync.WaitGroup
	for g := 0; g < clientConns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(order); i += clientConns {
				k := order[i]
				v, err := svc.client.Run(ctx, specs[k])
				if err == nil && v.ID != ids[k] {
					err = fmt.Errorf("run ID %s, spec.Hash says %s", v.ID, ids[k])
				}
				if err == nil {
					results[k], err = svc.client.Artifact(ctx, v.ID, serve.ResultArtifact)
				}
				if err != nil {
					errs[g] = fmt.Errorf("warm-up %s: %w", specs[k].Workload, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := map[string][]byte{}
	for k, b := range results {
		out[ids[k]] = b
	}
	return out, nil
}

func measureCached(e *env, tr *tracer) (*outcome, error) {
	o := newOutcome()
	specs := cachedSpecs()
	ids := make([]string, len(specs))
	for i, sp := range specs {
		_, end := tr.begin("spec.Hash", 0)
		id, err := sp.Hash()
		end()
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	order := permutation(e.seed, len(specs))

	// Set-up, repeated on fresh cache directories; the last server stays
	// up for the timed phase. Every warm-up must fetch the same bytes.
	var svc *service
	var warm map[string][]byte
	var setups []float64
	_, endSetup := tr.begin("setup", 0)
	for i := 0; i < cachedSetups; i++ {
		dir := filepath.Join(e.out, fmt.Sprintf("cached-cache-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if svc, err = startService(dir); err != nil {
			return nil, err
		}
		got, err := warmUp(svc, specs, ids, order)
		if err != nil {
			svc.stop()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if warm != nil {
			for id, b := range got {
				if !bytes.Equal(b, warm[id]) {
					o.problem("warm-up %d: result.json of %s differs from the first server's", i, id)
				}
			}
		}
		warm = got
	}
	endSetup()
	o.e2e[mSetup] = value{median(setups), "s", len(setups)}
	o.note("set-up samples (s): %s", formatSeconds(setups))
	before, err := svc.scrape()
	if err != nil {
		svc.stop()
		return nil, err
	}

	type worker struct {
		lat      []float64
		failed   int
		problems []string
	}
	workers := make([]*worker, clientConns)
	ctx := context.Background()
	rt0 := readRuntime()
	if err := tr.startProfile(); err != nil {
		svc.stop()
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(e.seconds)
	var wg sync.WaitGroup
	for g := range workers {
		w := &worker{}
		workers[g] = w
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed*int64(clientConns) + int64(g)))
			for time.Now().Before(deadline) {
				k := rng.Intn(len(specs))
				id, end := tr.begin("op", 0)
				t0 := time.Now()
				_, endRun := tr.begin("client.Run", id)
				v, err := svc.client.Run(ctx, specs[k])
				endRun()
				var body []byte
				if err == nil {
					_, endArt := tr.begin("client.Artifact result.json", id)
					body, err = svc.client.Artifact(ctx, v.ID, serve.ResultArtifact)
					endArt()
				}
				w.lat = append(w.lat, time.Since(t0).Seconds())
				end()
				switch {
				case err != nil:
					w.failed++
				case v.ID != ids[k] || v.State != string(serve.StateDone):
					w.problems = append(w.problems, fmt.Sprintf("run %s: id %s state %s", ids[k], v.ID, v.State))
				case !bytes.Equal(body, warm[ids[k]]):
					w.problems = append(w.problems, fmt.Sprintf("run %s: result.json differs from warm-up", ids[k]))
				}
			}
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)
	if err := tr.stopProfile(); err != nil {
		svc.stop()
		return nil, err
	}
	after, err := svc.scrape()
	if err != nil {
		svc.stop()
		return nil, err
	}
	if err := svc.stop(); err != nil {
		return nil, err
	}

	var lat []float64
	for _, w := range workers {
		lat = append(lat, w.lat...)
		o.failed += w.failed
		o.problems = append(o.problems, w.problems...)
	}
	ops := len(lat)
	runtimeLayer(o, rt0, readRuntime(), ops)
	o.attempted = ops
	delta := telemetryTotals{}
	for k, v := range after {
		delta[k] = v - before[k]
	}
	if n := delta[serve.MetricJobsDone]; n != 0 {
		o.problem("%v jobs ran during the timed phase; every op must be a cache hit", n)
	}
	if h := delta[serve.MetricCacheHits]; int(h) != ops-o.failed {
		o.problem("%v cache hits for %d successful ops", h, ops-o.failed)
	}
	o.e2e[mThroughput] = value{float64(ops) / wall.Seconds(), "1/s", ops}
	o.e2e[mLatP50] = value{median(lat), "s", ops}
	o.e2e[mCompleted] = value{float64(ops-o.failed) / float64(ops), "ratio", ops}
	o.e2e[mRSS] = value{peakRSSMB(), "MB", 1}
	o.note("runs-cached: %d ops in %.3f s by %d closed-loop clients; p90 %.6f s, p99 %.6f s (not gated)",
		ops, wall.Seconds(), clientConns, quantile(lat, 0.9), quantile(lat, 0.99))
	serveLayers(o, delta, ops)
	spanLayers(o, tr)
	return o, nil
}
