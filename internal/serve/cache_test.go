package serve

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"laperm/internal/faults"
)

func hexID(digit byte, n int) string { return strings.Repeat(string(digit), n) }

func bytesArtifact(name string, body []byte) Artifact {
	return Artifact{Name: name, Write: func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	}}
}

// indexed reports whether id is in c's in-memory index, without touching
// its recency.
func indexed(c *Cache, id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[id] != nil
}

// cacheFiles lists the names in a cache root.
func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

func putEntry(t *testing.T, c *Cache, id string, size int) {
	t.Helper()
	err := c.Put(id, []Artifact{
		bytesArtifact("data.bin", make([]byte, size)),
		bytesArtifact(ResultArtifact, []byte(`{}`)),
	})
	if err != nil {
		t.Fatalf("Put(%s): %v", id[:8], err)
	}
}

func TestCachePutLookupReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := hexID('1', 64)
	putEntry(t, c, id, 100)
	if !indexed(c, id) {
		t.Fatal("entry missing right after Put")
	}
	if got, err := c.ReadArtifact(id, ResultArtifact); err != nil || string(got) != `{}` {
		t.Fatalf("ReadArtifact = %q, %v", got, err)
	}
	// 102 payload bytes (100 + `{}`) plus the index and trailer.
	st := c.Stats()
	if st.Entries != 1 || st.Bytes <= 102 {
		t.Fatalf("stats = %+v, want 1 entry of >102 bytes (payload + index)", st)
	}
	// The entry is one regular file named by its ID, sized as counted.
	if names := cacheFiles(t, dir); len(names) != 1 || names[0] != id {
		t.Fatalf("cache root holds %v, want just the entry file %s", names, id[:8])
	}
	if info, err := os.Stat(filepath.Join(dir, id)); err != nil || !info.Mode().IsRegular() || info.Size() != st.Bytes {
		t.Fatalf("entry file: %v, %v; want a regular file of %d bytes", info, err, st.Bytes)
	}

	// A fresh Cache over the same directory must index the entry: the
	// cache survives process restarts.
	c2, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !indexed(c2, id) {
		t.Fatal("entry lost across reopen")
	}
	if st2 := c2.Stats(); st2.Entries != 1 || st2.Bytes != st.Bytes {
		t.Fatalf("reopened stats = %+v, want %+v", st2, st)
	}
	// The reopened cache parses the index from disk on first read.
	if got, err := c2.ReadArtifact(id, "data.bin"); err != nil || len(got) != 100 {
		t.Fatalf("ReadArtifact after reopen = %d bytes, %v", len(got), err)
	}
}

// TestCacheIncompleteEntryDiscarded: the temp file of a Put that crashed
// before its rename, and a partial entry directory of the older
// file-per-artifact layout, are debris: removed on open, never served.
// Files the cache did not write are left alone.
func TestCacheIncompleteEntryDiscarded(t *testing.T) {
	dir := t.TempDir()
	tmpID, dirID := hexID('2', 64), hexID('d', 64)
	tmp := filepath.Join(dir, tmpID+tempMarker+"123456")
	if err := os.WriteFile(tmp, []byte("half an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	entry := filepath.Join(dir, dirID)
	if err := os.MkdirAll(entry, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(entry, "events.jsonl"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "NOTES.txt"), []byte("mine"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{tmpID, dirID} {
		if indexed(c, id) {
			t.Fatalf("incomplete entry %s indexed", id[:8])
		}
	}
	if names := cacheFiles(t, dir); len(names) != 1 || names[0] != "NOTES.txt" {
		t.Fatalf("cache root after open holds %v, want only NOTES.txt", names)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats = %+v, want an empty cache", st)
	}
}

// TestOpenCacheOrdersLRUByMtime: a reopened cache ranks entries by their
// file's mtime, so an over-budget open evicts the least recently written.
func TestOpenCacheOrdersLRUByMtime(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{hexID('a', 64), hexID('b', 64), hexID('c', 64)}
	for _, id := range ids {
		putEntry(t, c, id, 100)
	}
	entrySize := c.Stats().Bytes / 3
	// Mtime order b < c < a, unlike the write order.
	base := time.Now().Add(-time.Hour)
	for i, id := range []string{ids[1], ids[2], ids[0]} {
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, id), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	c2, err := OpenCache(dir, 2*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	if indexed(c2, ids[1]) || !indexed(c2, ids[0]) || !indexed(c2, ids[2]) {
		t.Fatal("open evicted out of mtime order; want only the oldest (b) gone")
	}
	if _, err := os.Stat(filepath.Join(dir, ids[1])); !os.IsNotExist(err) {
		t.Fatalf("evicted entry file still on disk: %v", err)
	}
}

// TestCacheLRUEviction: over-budget Puts evict the least-recently-used
// entry; a read refreshes recency.
func TestCacheLRUEviction(t *testing.T) {
	// Probe the on-disk size of one entry (payload + index), then
	// budget for two entries but not three.
	probe, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	putEntry(t, probe, hexID('f', 64), 100)
	entrySize := probe.Stats().Bytes
	c, err := OpenCache(t.TempDir(), 2*entrySize+entrySize/2)
	if err != nil {
		t.Fatal(err)
	}
	id1, id2, id3 := hexID('a', 64), hexID('b', 64), hexID('c', 64)
	putEntry(t, c, id1, 100)
	putEntry(t, c, id2, 100)
	if _, err := c.ReadArtifact(id1, ResultArtifact); err != nil { // refresh id1: id2 becomes LRU
		t.Fatal(err)
	}
	putEntry(t, c, id3, 100) // 3 entries > budget: evict exactly one, the LRU (id2)
	if indexed(c, id2) {
		t.Fatal("LRU entry id2 survived eviction")
	}
	for _, id := range []string{id1, id3} {
		if !indexed(c, id) {
			t.Fatalf("entry %s evicted out of LRU order", id[:8])
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 entries after 1 eviction", st)
	}
	if _, err := os.Stat(filepath.Join(c.dir, id2)); !os.IsNotExist(err) {
		t.Fatal("evicted entry still on disk")
	}
}

func TestCacheRejectsBadIDsAndNames(t *testing.T) {
	c, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "ABC", "../etc", hexID('1', 200)} {
		if err := c.Put(id, []Artifact{bytesArtifact(ResultArtifact, nil)}); err == nil {
			t.Errorf("Put accepted id %q", id)
		}
		if _, err := c.ReadArtifact(id, ResultArtifact); err == nil {
			t.Errorf("ReadArtifact accepted id %q", id)
		}
	}
	id := hexID('3', 64)
	if err := c.Put(id, []Artifact{bytesArtifact("../escape", nil), bytesArtifact(ResultArtifact, nil)}); err == nil {
		t.Error("Put accepted a path-traversal artifact name")
	}
	if err := c.Put(id, []Artifact{bytesArtifact("data.bin", nil)}); err == nil {
		t.Errorf("Put accepted an entry without %s", ResultArtifact)
	}
}

// TestCachePutExistingIsNoop: content addressing makes re-writing an id
// redundant by construction.
func TestCachePutExistingIsNoop(t *testing.T) {
	c, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	id := hexID('4', 64)
	putEntry(t, c, id, 10)
	before := c.Stats()
	err = c.Put(id, []Artifact{bytesArtifact(ResultArtifact, []byte("different"))})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := c.ReadArtifact(id, ResultArtifact); string(got) != `{}` {
		t.Fatalf("second Put overwrote the entry: %q", got)
	}
	if after := c.Stats(); after != before {
		t.Fatalf("second Put changed stats: %+v -> %+v", before, after)
	}
}

// mustRegistry parses a fault schedule for cache fault tests.
func mustRegistry(t *testing.T, spec string) *faults.Registry {
	t.Helper()
	r, err := faults.Parse(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// assertDiscarded checks the aftermath of reading a damaged entry: a
// *CorruptEntryError for id, the entry de-indexed and its file removed,
// and a resubmission (a fresh Put of the same id) served again.
func assertDiscarded(t *testing.T, c *Cache, id string, readErr error) *CorruptEntryError {
	t.Helper()
	var ce *CorruptEntryError
	if !errors.As(readErr, &ce) {
		t.Fatalf("ReadArtifact on damaged entry = %v, want *CorruptEntryError", readErr)
	}
	if ce.ID != id {
		t.Errorf("CorruptEntryError = %+v, want ID %s", ce, id[:8])
	}
	if indexed(c, id) {
		t.Fatal("damaged entry still indexed")
	}
	if _, err := os.Stat(filepath.Join(c.dir, id)); !os.IsNotExist(err) {
		t.Fatal("damaged entry not removed from disk")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after discard = %+v", st)
	}
	putEntry(t, c, id, 100)
	if got, err := c.ReadArtifact(id, ResultArtifact); err != nil || string(got) != `{}` {
		t.Fatalf("recomputed entry = %q, %v", got, err)
	}
	return ce
}

// TestCacheCorruptArtifactDiscarded: a flipped payload byte in the entry
// file is detected by the index's hash check on read; the poisoned entry is
// discarded (never served) and subsequent lookups miss, so the run
// re-executes.
func TestCacheCorruptArtifactDiscarded(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := hexID('5', 64)
	putEntry(t, c, id, 100)
	// Flip the first byte of result.json in place — bit rot.
	path := filepath.Join(dir, id)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[100] ^= 0xff // data.bin holds bytes [0, 100), result.json follows
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = c.ReadArtifact(id, ResultArtifact)
	if ce := assertDiscarded(t, c, id, err); ce.Artifact != ResultArtifact {
		t.Errorf("CorruptEntryError = %+v, want artifact %s", ce, ResultArtifact)
	}
	if st := c.Stats(); st.Corruptions != 1 {
		t.Fatalf("corruptions = %d, want 1", st.Corruptions)
	}
}

// TestCacheTruncatedArtifactDiscarded: a crash-truncated entry file
// (shorter than the index recorded) fails verification the same way.
func TestCacheTruncatedArtifactDiscarded(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := hexID('6', 64)
	putEntry(t, c, id, 100)
	if err := os.Truncate(filepath.Join(dir, id), 10); err != nil {
		t.Fatal(err)
	}
	_, err = c.ReadArtifact(id, "data.bin")
	assertDiscarded(t, c, id, err)
}

// TestCacheDamagedIndexDiscarded: an entry file whose trailer or index is
// garbage, or whose index points past the end of the file, is discarded on
// its first read after a reopen — with no panic, and with no allocation
// sized from the bad header (a 2^62-byte length would panic if it were
// allocated).
func TestCacheDamagedIndexDiscarded(t *testing.T) {
	rewrite := func(mutate func(index []artifactRef)) func(*testing.T, []byte) []byte {
		return func(t *testing.T, raw []byte) []byte {
			index := []artifactRef{
				{Name: "data.bin", Off: 0, Size: 100, Sum: make([]byte, 32)},
				{Name: ResultArtifact, Off: 100, Size: 2, Sum: make([]byte, 32)},
			}
			mutate(index)
			tail, err := encodeIndex(index)
			if err != nil {
				t.Fatal(err)
			}
			return append(raw[:102:102], tail...)
		}
	}
	cases := map[string]func(t *testing.T, raw []byte) []byte{
		"empty file": func(*testing.T, []byte) []byte { return nil },
		"garbage index": func(_ *testing.T, raw []byte) []byte {
			for i := 102; i < len(raw)-trailerSize; i++ {
				raw[i] = 'x'
			}
			return raw
		},
		"garbage trailer": func(_ *testing.T, raw []byte) []byte {
			copy(raw[len(raw)-trailerSize:], "not an entry file")
			return raw
		},
		"index length past EOF": func(_ *testing.T, raw []byte) []byte {
			binary.LittleEndian.PutUint32(raw[len(raw)-trailerSize:], 60000)
			return raw
		},
		"index length past bound": func(_ *testing.T, raw []byte) []byte {
			binary.LittleEndian.PutUint32(raw[len(raw)-trailerSize:], 1<<31)
			return raw
		},
		"offset past EOF":  rewrite(func(ix []artifactRef) { ix[1].Off = 1 << 40 }),
		"length past EOF":  rewrite(func(ix []artifactRef) { ix[1].Size = 1 << 62 }),
		"negative length":  rewrite(func(ix []artifactRef) { ix[1].Size = -1 }),
		"negative offset":  rewrite(func(ix []artifactRef) { ix[1].Off = -50 }),
		"extent past data": rewrite(func(ix []artifactRef) { ix[1].Size = 200 }),
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := OpenCache(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			id := hexID('e', 64)
			putEntry(t, c, id, 100)
			path := filepath.Join(dir, id)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(t, raw), 0o644); err != nil {
				t.Fatal(err)
			}
			c2, err := OpenCache(dir, 0) // no cached index: the read parses the file
			if err != nil {
				t.Fatal(err)
			}
			_, err = c2.ReadArtifact(id, ResultArtifact)
			assertDiscarded(t, c2, id, err)
		})
	}
}

// TestCacheMissingArtifactKeepsEntry: asking an entry for an artifact it
// does not hold (a sweep-kind probe of a run ID) is a plain miss, not
// corruption: the entry stays indexed, on disk and servable, whether its
// index came from Put or from the file after a reopen.
func TestCacheMissingArtifactKeepsEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := hexID('7', 64)
	putEntry(t, c, id, 100)
	c2, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, cache := range map[string]*Cache{"after Put": c, "after reopen": c2} {
		_, err := cache.ReadArtifact(id, SweepSpecArtifact)
		var ce *CorruptEntryError
		if err == nil || errors.As(err, &ce) {
			t.Fatalf("%s: ReadArtifact of an absent artifact = %v, want a plain miss", name, err)
		}
		if got, err := cache.ReadArtifact(id, ResultArtifact); err != nil || string(got) != `{}` {
			t.Fatalf("%s: entry not kept after the miss: %q, %v", name, got, err)
		}
		if st := cache.Stats(); st.Entries != 1 || st.Corruptions != 0 {
			t.Fatalf("%s: stats = %+v", name, st)
		}
	}
}

// TestCacheConcurrentColdReads: readers racing to fill a reopened entry's
// index from disk all get verified bytes (run under -race).
func TestCacheConcurrentColdReads(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := hexID('c', 64)
	putEntry(t, c, id, 100)
	c2, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if _, err := c2.ReadArtifact(id, name); err != nil {
				t.Errorf("concurrent ReadArtifact(%s): %v", name, err)
			}
		}([]string{"data.bin", ResultArtifact}[i%2])
	}
	wg.Wait()
	if st := c2.Stats(); st.Entries != 1 || st.Corruptions != 0 {
		t.Fatalf("stats after concurrent reads = %+v", st)
	}
}

// TestCacheManifestlessEntryIsDebris: an entry directory of the older
// file-per-artifact layout, even one holding a result.json, carries no
// index to verify against and is removed on open.
func TestCacheManifestlessEntryIsDebris(t *testing.T) {
	dir := t.TempDir()
	id := hexID('7', 64)
	entry := filepath.Join(dir, id)
	if err := os.MkdirAll(entry, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(entry, ResultArtifact), []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if indexed(c, id) {
		t.Fatal("manifestless entry served")
	}
	if _, err := os.Stat(entry); !os.IsNotExist(err) {
		t.Fatal("manifestless entry not removed")
	}
}

// TestCacheInjectedWriteFault: an armed write failpoint fails Put cleanly —
// the entry is never indexed and a retry (fault exhausted) succeeds against
// the same id.
func TestCacheInjectedWriteFault(t *testing.T) {
	c, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.flts = mustRegistry(t, "serve.cache.write=error:n=1")
	id := hexID('8', 64)
	err = c.Put(id, []Artifact{
		bytesArtifact("data.bin", make([]byte, 50)),
		bytesArtifact(ResultArtifact, []byte(`{}`)),
	})
	if !faults.IsInjected(err) {
		t.Fatalf("Put under write fault = %v, want injected error", err)
	}
	if indexed(c, id) {
		t.Fatal("failed Put left an indexed entry")
	}
	if names := cacheFiles(t, c.dir); len(names) != 0 {
		t.Fatalf("failed Put left %v in the cache root", names)
	}
	putEntry(t, c, id, 50) // fault exhausted: retry succeeds
	if got, err := c.ReadArtifact(id, ResultArtifact); err != nil || string(got) != `{}` {
		t.Fatalf("retry after write fault: %q, %v", got, err)
	}
}

// TestCacheInjectedPartialWriteFault: a partial-write fault tears an
// artifact mid-stream. Put never renames a failed write into place and
// removes its temp file, so nothing lies under the final name (or anywhere
// in the cache root) and a reopened cache has nothing to index.
func TestCacheInjectedPartialWriteFault(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.flts = mustRegistry(t, "serve.cache.write=partial:n=1")
	id := hexID('9', 64)
	err = c.Put(id, []Artifact{
		bytesArtifact("data.bin", make([]byte, 64)),
		bytesArtifact(ResultArtifact, []byte(`{}`)),
	})
	if !faults.IsInjected(err) {
		t.Fatalf("Put under partial fault = %v, want injected error", err)
	}
	if _, err := os.Stat(filepath.Join(dir, id)); !os.IsNotExist(err) {
		t.Fatalf("torn Put left a file under the entry's name: %v", err)
	}
	if names := cacheFiles(t, dir); len(names) != 0 {
		t.Fatalf("torn Put left %v in the cache root", names)
	}
	c2, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if indexed(c2, id) {
		t.Fatal("torn entry indexed on reopen")
	}
}

// TestCacheInjectedEvictFault: an eviction fault models Remove failing —
// the index stays consistent (the victim is gone from memory) and the
// orphaned entry file is re-indexed by a later open.
func TestCacheInjectedEvictFault(t *testing.T) {
	probe, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	putEntry(t, probe, hexID('f', 64), 100)
	entrySize := probe.Stats().Bytes
	dir := t.TempDir()
	c, err := OpenCache(dir, entrySize+entrySize/2)
	if err != nil {
		t.Fatal(err)
	}
	c.flts = mustRegistry(t, "serve.cache.evict=error:n=1")
	id1, id2 := hexID('a', 64), hexID('b', 64)
	putEntry(t, c, id1, 100)
	putEntry(t, c, id2, 100) // evicts id1; injected fault skips the disk removal
	if indexed(c, id1) {
		t.Fatal("evicted entry still indexed")
	}
	if _, err := os.Stat(filepath.Join(dir, id1)); err != nil {
		t.Fatalf("fault should have orphaned the entry file on disk: %v", err)
	}
	c2, err := OpenCache(dir, 10*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	if !indexed(c2, id1) {
		t.Fatal("orphaned complete entry not re-indexed on reopen")
	}
}
