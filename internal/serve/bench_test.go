package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// tinyRun executes tinySpec once on a fresh server and returns the server,
// its HTTP front and the run's ID, with the run's entry in the cache.
func tinyRun(b *testing.B) (*Server, string, string) {
	b.Helper()
	s, ts := newTestServer(b, Config{Workers: 1})
	s.Start()
	_, view := submit(b, ts, tinySpec)
	if v := waitTerminal(b, ts, view.ID); v.State != StateDone {
		b.Fatalf("tiny run failed: %s", v.Error)
	}
	return s, ts.URL, view.ID
}

// BenchmarkCachePut commits one tiny run's six artifacts as a new entry.
// The artifacts are the run's bytes, so the emitters' encoding cost stays
// out of the measurement; the byte budget bounds the disk footprint at any
// b.N, so eviction is part of the cost, as in a budgeted server.
func BenchmarkCachePut(b *testing.B) {
	s, _, id := tinyRun(b)
	var arts []Artifact
	for _, name := range ArtifactNames {
		raw, err := s.cache.ReadArtifact(id, name)
		if err != nil {
			b.Fatal(err)
		}
		arts = append(arts, bytesArtifact(name, raw))
	}
	c, err := OpenCache(b.TempDir(), 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(fmt.Sprintf("%064x", i), arts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheReadArtifact reads and verifies a cached result.json: the
// read behind every cache hit.
func BenchmarkCacheReadArtifact(b *testing.B) {
	s, _, id := tinyRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.cache.ReadArtifact(id, ResultArtifact); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunsSubmitCacheHit resubmits a completed spec to POST /v1/runs
// over loopback HTTP: the whole cache-hit request, client side included.
func BenchmarkRunsSubmitCacheHit(b *testing.B) {
	_, url, _ := tinyRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url+"/v1/runs", "application/json", strings.NewReader(tinySpec))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("cache-hit submit: status %d, %v", resp.StatusCode, err)
		}
	}
}
