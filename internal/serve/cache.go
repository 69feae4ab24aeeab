package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"laperm/internal/faults"
	"laperm/internal/telemetry"
)

// ResultArtifact is the artifact every cache entry holds: resolution probes
// it to decide whether a spec is already answered.
const ResultArtifact = "result.json"

// An entry file is the artifact payloads back to back, then a JSON index
// of artifactRef records, then a 16-byte trailer: the index's length and
// CRC-32 (little-endian uint32s) and entryMagic. The index comes last so
// Put can stream each artifact straight to disk before its hash is known.
const (
	entryMagic  = "lpcache1"
	trailerSize = 16
	// maxIndexBytes bounds the index a reader allocates for.
	maxIndexBytes = 1 << 16
	// tempMarker joins an ID to the random suffix of Put's temp file.
	tempMarker = ".tmp"
)

// CorruptEntryError reports a cache entry whose bytes failed integrity
// verification; the entry has already been removed when this is returned,
// so the caller's next lookup re-executes instead of serving debris.
type CorruptEntryError struct {
	// ID is the entry; Artifact the one being read; Detail the mismatch.
	ID, Artifact, Detail string
}

func (e *CorruptEntryError) Error() string {
	return fmt.Sprintf("serve: cache entry %q corrupt at %s: %s (entry discarded)",
		e.ID, e.Artifact, e.Detail)
}

// Artifact is one named payload of a cache entry.
type Artifact struct {
	// Name identifies the artifact within its entry (no path separators).
	Name string
	// Write emits the artifact body.
	Write func(io.Writer) error
}

// CacheStats is a point-in-time snapshot of the cache's occupancy.
type CacheStats struct {
	// Entries and Bytes are the current entry count and their total size.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// MaxBytes is the configured budget (0 = unlimited).
	MaxBytes int64 `json:"max_bytes"`
	// Evictions counts entries removed to stay under the budget.
	Evictions int64 `json:"evictions"`
	// Corruptions counts entries discarded after failing integrity
	// verification on read.
	Corruptions int64 `json:"corruptions"`
}

// Cache is the content-addressed on-disk result store, bounded by an LRU
// byte budget: one file per spec hash holding the entry's artifacts and
// their index. Put renames a finished temp file into place, so readers never
// observe a partial entry, even across a crash. Every read verifies the
// artifact's SHA-256: a mismatch discards the entry and surfaces as a
// *CorruptEntryError, never as served bytes.
type Cache struct {
	dir      string
	maxBytes int64
	// flts is the armed failpoint registry (nil = disarmed): sites
	// SiteCacheWrite, SiteCacheRead, SiteCacheEvict.
	flts *faults.Registry
	// readBytes / writtenBytes count artifact bytes served from and
	// committed to the cache. Nil-safe telemetry handles, wired by the
	// owning server; a standalone Cache leaves them nil at no cost.
	readBytes    *telemetry.Counter
	writtenBytes *telemetry.Counter

	mu          sync.Mutex
	entries     map[string]*cacheEntry
	clock       uint64 // LRU clock: bumped on every touch
	total       int64
	evictions   int64
	corruptions int64
}

type cacheEntry struct {
	bytes    int64
	lastUsed uint64
	// index is the entry's parsed index: filled by Put, or by the first
	// read of an entry a previous process wrote.
	index []artifactRef
}

// artifactRef is one index record: where an artifact's bytes lie in the
// entry file and what they hash to.
type artifactRef struct {
	Name string `json:"name"`
	Off  int64  `json:"off"`
	Size int64  `json:"size"`
	Sum  []byte `json:"sha256"`
}

// OpenCache opens (creating if needed) the cache rooted at dir with the
// given byte budget (maxBytes <= 0 means unlimited). Entry files are
// indexed by size, LRU-ordered by mtime, and verified on first read. Temp
// files of an unfinished Put and entry directories of the older
// file-per-artifact layout are debris and are removed.
func OpenCache(dir string, maxBytes int64) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: cache directory is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: create cache dir: %w", err)
	}
	c := &Cache{dir: dir, maxBytes: maxBytes, entries: make(map[string]*cacheEntry)}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: scan cache dir: %w", err)
	}
	var scanned []os.FileInfo
	for _, de := range names {
		id, _, isTemp := strings.Cut(de.Name(), tempMarker)
		switch {
		case de.Type().IsRegular() && validID(de.Name()):
			if info, err := de.Info(); err == nil {
				scanned = append(scanned, info)
			}
		case (isTemp || de.IsDir()) && validID(id):
			os.RemoveAll(filepath.Join(dir, de.Name()))
		}
	}
	sort.Slice(scanned, func(i, j int) bool { return scanned[i].ModTime().Before(scanned[j].ModTime()) })
	for _, info := range scanned {
		c.clock++
		c.entries[info.Name()] = &cacheEntry{bytes: info.Size(), lastUsed: c.clock}
		c.total += info.Size()
	}
	c.mu.Lock()
	c.evictFor("")
	c.mu.Unlock()
	return c, nil
}

// validID guards the filesystem: cache IDs are lowercase-hex content hashes,
// never path fragments.
func validID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for _, r := range id {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// ReadArtifact returns one artifact's bytes from a complete entry, verified
// against the entry's index. An entry that lacks the artifact is a plain
// miss and stays cached. A bad index, a short read or a hash mismatch
// discards the whole entry and returns a *CorruptEntryError, so upstream
// treats it exactly like a miss and recomputes.
func (c *Cache) ReadArtifact(id, name string) ([]byte, error) {
	c.mu.Lock()
	e := c.entries[id]
	if e == nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("serve: no cache entry %q", id)
	}
	c.clock++
	e.lastUsed = c.clock
	index := e.index
	c.mu.Unlock()
	if err := c.flts.Hit(faults.SiteCacheRead); err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(c.dir, id))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if index == nil {
		if index, err = readIndex(f, e.bytes); err != nil {
			return nil, c.discardCorrupt(id, name, "index: "+err.Error())
		}
		c.mu.Lock()
		e.index = index
		c.mu.Unlock()
	}
	i := slices.IndexFunc(index, func(r artifactRef) bool { return r.Name == name })
	if i < 0 {
		return nil, fmt.Errorf("serve: cache entry %q has no artifact %s", id, name)
	}
	ref := index[i]
	data := make([]byte, ref.Size)
	if _, err := f.ReadAt(data, ref.Off); err != nil {
		return nil, c.discardCorrupt(id, name,
			fmt.Sprintf("read %d bytes at offset %d: %v", ref.Size, ref.Off, err))
	}
	if sum := sha256.Sum256(data); !bytes.Equal(sum[:], ref.Sum) {
		return nil, c.discardCorrupt(id, name,
			fmt.Sprintf("sha256 %x, index says %x (%d bytes)", sum, ref.Sum, len(data)))
	}
	c.readBytes.Add(uint64(len(data)))
	return data, nil
}

// readIndex parses the trailer and index of an entry file of the given
// size, checking the index length and every artifact's extent against that
// size before allocating from them.
func readIndex(f *os.File, size int64) ([]artifactRef, error) {
	var tr [trailerSize]byte
	if _, err := f.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(tr[:4]))
	payloadEnd := size - trailerSize - n
	if string(tr[8:]) != entryMagic || n > maxIndexBytes || payloadEnd < 0 {
		return nil, fmt.Errorf("bad trailer %q in a %d-byte file", tr[:], size)
	}
	raw := make([]byte, n)
	if _, err := f.ReadAt(raw, payloadEnd); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(raw) != binary.LittleEndian.Uint32(tr[4:8]) {
		return nil, errors.New("index checksum mismatch")
	}
	var index []artifactRef
	if err := json.Unmarshal(raw, &index); err != nil {
		return nil, err
	}
	for _, r := range index {
		if r.Off < 0 || r.Size < 0 || r.Off > payloadEnd || r.Size > payloadEnd-r.Off {
			return nil, fmt.Errorf("artifact %s at [%d, +%d) lies past the %d payload bytes",
				r.Name, r.Off, r.Size, payloadEnd)
		}
	}
	return index, nil
}

// encodeIndex renders the index and trailer that end an entry file.
func encodeIndex(index []artifactRef) ([]byte, error) {
	raw, err := json.Marshal(index)
	if err != nil || len(raw) > maxIndexBytes {
		return nil, fmt.Errorf("serve: encode cache entry index (%d bytes): %v", len(raw), err)
	}
	tail := binary.LittleEndian.AppendUint32(raw, uint32(len(raw)))
	tail = binary.LittleEndian.AppendUint32(tail, crc32.ChecksumIEEE(raw))
	return append(tail, entryMagic...), nil
}

// discardCorrupt drops a corrupt entry from the index and the disk, counts
// it, and builds the structured error.
func (c *Cache) discardCorrupt(id, artifact, detail string) error {
	c.mu.Lock()
	if e, ok := c.entries[id]; ok {
		c.total -= e.bytes
		delete(c.entries, id)
	}
	c.corruptions++
	c.mu.Unlock()
	os.Remove(filepath.Join(c.dir, id))
	return &CorruptEntryError{ID: id, Artifact: artifact, Detail: detail}
}

// Put streams every artifact through its SHA-256 into a temp file, appends
// the index and renames the file to the ID, which completes the entry; then
// it evicts least-recently-used entries until the byte budget holds again.
// Writing an id that already exists is a no-op (the content address
// guarantees identical bytes).
func (c *Cache) Put(id string, artifacts []Artifact) error {
	if !validID(id) {
		return fmt.Errorf("serve: invalid cache id %q", id)
	}
	c.mu.Lock()
	_, exists := c.entries[id]
	c.mu.Unlock()
	if exists {
		return nil
	}
	for _, a := range artifacts {
		if a.Name == "" || strings.ContainsAny(a.Name, `/\`) {
			return fmt.Errorf("serve: invalid artifact name %q", a.Name)
		}
	}
	if !slices.ContainsFunc(artifacts, func(a Artifact) bool { return a.Name == ResultArtifact }) {
		return fmt.Errorf("serve: entry %q has no %s artifact", id, ResultArtifact)
	}
	tmp, err := os.CreateTemp(c.dir, id+tempMarker+"*")
	if err != nil {
		return fmt.Errorf("serve: create cache entry: %w", err)
	}
	committed := false
	defer func() {
		if !committed {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	ew := &entryWriter{w: bufio.NewWriterSize(tmp, 32<<10), h: sha256.New()}
	index := make([]artifactRef, len(artifacts))
	for i, a := range artifacts {
		ew.h.Reset()
		off := ew.n
		err := c.flts.Hit(faults.SiteCacheWrite)
		if err == nil {
			err = a.Write(c.flts.Writer(faults.SiteCacheWrite, ew))
		}
		if err != nil {
			return fmt.Errorf("serve: write artifact %s: %w", a.Name, err)
		}
		index[i] = artifactRef{Name: a.Name, Off: off, Size: ew.n - off, Sum: ew.h.Sum(nil)}
	}
	tail, err := encodeIndex(index)
	if err != nil {
		return err
	}
	if _, err = ew.w.Write(tail); err == nil {
		err = ew.w.Flush()
	}
	if err == nil {
		err = tmp.Close()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(c.dir, id))
	}
	if err != nil {
		return fmt.Errorf("serve: commit cache entry: %w", err)
	}
	committed = true
	size := ew.n + int64(len(tail))
	c.writtenBytes.Add(uint64(size))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	c.entries[id] = &cacheEntry{bytes: size, lastUsed: c.clock, index: index}
	c.total += size
	c.evictFor(id)
	return nil
}

// entryWriter appends artifact payloads to an entry file, hashing and
// counting the bytes as they pass.
type entryWriter struct {
	w *bufio.Writer
	h hash.Hash
	n int64
}

func (ew *entryWriter) Write(p []byte) (int, error) {
	n, err := ew.w.Write(p)
	ew.h.Write(p[:n])
	ew.n += int64(n)
	return n, err
}

// evictFor removes least-recently-used entries until the budget holds,
// sparing the entry named keep (the one just written — callers are about to
// read it). Called with c.mu held. An injected eviction fault skips the
// Remove, orphaning a complete entry file a later OpenCache re-indexes.
func (c *Cache) evictFor(keep string) {
	if c.maxBytes <= 0 {
		return
	}
	for c.total > c.maxBytes {
		victim := ""
		var oldest uint64
		for id, e := range c.entries {
			if id == keep {
				continue
			}
			if victim == "" || e.lastUsed < oldest {
				victim, oldest = id, e.lastUsed
			}
		}
		if victim == "" {
			return // only the spared entry remains; it may exceed the budget
		}
		c.total -= c.entries[victim].bytes
		delete(c.entries, victim)
		c.evictions++
		if err := c.flts.Hit(faults.SiteCacheEvict); err == nil {
			os.Remove(filepath.Join(c.dir, victim))
		}
	}
}

// Stats returns an occupancy snapshot.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:     len(c.entries),
		Bytes:       c.total,
		MaxBytes:    c.maxBytes,
		Evictions:   c.evictions,
		Corruptions: c.corruptions,
	}
}
