package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"laperm/internal/client"
	"laperm/internal/serve"
	"laperm/internal/telemetry"
)

// serverWorkers and clientConns size the service workloads for a 2-CPU
// host: 2 server workers and at most 2 client goroutines, in one process.
const (
	serverWorkers = 2
	clientConns   = 2
)

// service is one lapermd server on a loopback listener with a client for it.
type service struct {
	srv    *serve.Server
	reg    *telemetry.Registry
	client *client.Client
	hs     *http.Server
	tr     *http.Transport
	done   chan error
}

// startService starts a fresh server on cacheDir, serving on 127.0.0.1.
func startService(cacheDir string) (*service, error) {
	reg := telemetry.NewRegistry()
	srv, err := serve.New(serve.Config{CacheDir: cacheDir, Workers: serverWorkers, Telemetry: reg})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{srv: srv, reg: reg, done: make(chan error, 1)}
	s.hs = &http.Server{Handler: srv.Handler()}
	go func() { s.done <- s.hs.Serve(ln) }()
	s.tr = &http.Transport{MaxIdleConnsPerHost: clientConns}
	s.client = client.New(client.Config{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: s.tr}})
	return s, nil
}

// stop shuts the listener down, drains the server and waits for both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.tr.CloseIdleConnections()
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// scrape renders the server's telemetry registry in the Prometheus text
// format and returns every sample keyed by its series, for example
// `laperm_http_request_seconds_sum{route="/v1/runs"}`.
func (s *service) scrape() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := s.reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// httpRoutes maps the server's route labels to metric-name suffixes for
// serve.http_s_mean.<suffix>.
var httpRoutes = map[string]string{
	"/v1/runs":                         "runs_submit",
	"/v1/runs/{id}":                    "run_status",
	"/v1/artifacts/{id}/{name}":        "artifact",
	"/v1/sweeps":                       "sweeps_submit",
	"/v1/sweeps/{id}":                  "sweep_status",
	"/v1/sweeps/{id}/artifacts/{name}": "sweep_artifact",
}

// telemetryTotals accumulates histogram sums and counts across scrapes
// (one per server), so means cover every server of a run.
type telemetryTotals map[string]float64

func (t telemetryTotals) add(m map[string]float64) {
	for k, v := range m {
		name, _, _ := strings.Cut(k, "{")
		if strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_count") || strings.HasSuffix(name, "_total") {
			t[k] += v
		}
	}
}

// histMean is sum/count of a histogram series (name without suffix, labels
// such as `{route="/v1/runs"}` or "").
func (t telemetryTotals) histMean(name, labels string) (float64, int) {
	n := t[name+"_count"+labels]
	if n == 0 {
		return 0, 0
	}
	return t[name+"_sum"+labels] / n, int(n)
}

// serveLayers records the per-layer metrics read from server telemetry.
func serveLayers(o *outcome, t telemetryTotals, ops int) {
	if m, n := t.histMean(serve.MetricQueueWait, ""); n > 0 {
		o.layer["serve.queue_wait_s_mean"] = value{m, "s", n}
	}
	if m, n := t.histMean(serve.MetricRunSeconds, ""); n > 0 {
		o.layer["serve.job_run_s_mean"] = value{m, "s", n}
	}
	for route, suffix := range httpRoutes {
		if m, n := t.histMean(serve.MetricHTTPLatency, `{route="`+route+`"}`); n > 0 {
			o.layer["serve.http_s_mean."+suffix] = value{m, "s", n}
		}
	}
	if ops > 0 {
		o.layer["serve.cache_read_kb_per_op"] = value{t[serve.MetricCacheReadB] / float64(ops) / 1024, "KiB", ops}
	}
}
