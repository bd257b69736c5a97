// Package serve implements pccserve's serving layer: a crash-safe
// content-addressed result cache, a bounded-admission sweep scheduler, an
// error ledger, and the HTTP server that streams per-unit reports as NDJSON.
package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// Key identifies one sweep unit's result. Every field participates in the
// content address: a change to the code version (or any run parameter)
// misses the cache rather than serving stale bytes.
type Key struct {
	Experiment string  `json:"experiment"`
	Variant    string  `json:"variant"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Code       string  `json:"code"`
}

// address is the key's content address: the SHA-256 of its canonical
// rendering. Both cache tiers are keyed by it, so they cannot disagree on
// identity. Scale uses the shortest round-trip float encoding so 0.05 and
// 0.050000001 (and 0 and -0, which are equal as Go map keys) hash apart.
func (k Key) address() [sha256.Size]byte {
	var buf [128]byte // stays on the stack for every real key
	b := append(buf[:0], k.Experiment...)
	b = append(append(b, '|'), k.Variant...)
	b = strconv.AppendInt(append(b, '|'), k.Seed, 10)
	b = strconv.AppendFloat(append(b, '|'), k.Scale, 'g', -1, 64)
	b = append(append(b, '|'), k.Code...)
	return sha256.Sum256(b)
}

// cacheMeta is the first line of every cache file: the key it was computed
// for plus the payload checksum. A reader that cannot reproduce the checksum
// (truncation, bit rot, torn write) treats the entry as absent.
type cacheMeta struct {
	V      int    `json:"v"`
	Key    Key    `json:"key"`
	SHA256 string `json:"sha256"`
	Size   int    `json:"size"`
}

// CacheStats is the cache section of /v1/stats. The first five are monotonic
// counters; Hits counts a hit from either tier. The Mem fields describe the
// in-memory tier: hits it served, what it holds now, and entries it dropped
// (to Put, Poison or the byte budget).
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Writes   int64 `json:"writes"`
	Corrupt  int64 `json:"corrupt"`
	Poisoned int64 `json:"poisoned"`

	MemHits      int64 `json:"mem_hits"`
	MemEntries   int64 `json:"mem_entries"`
	MemBytes     int64 `json:"mem_bytes"`
	MemEvictions int64 `json:"mem_evictions"`
}

// memBudget bounds the payload bytes the in-memory tier holds per Cache.
const memBudget = 64 << 20

// Cache is a crash-safe content-addressed store of sweep-unit result lines,
// in two tiers. Disk is the source of truth: entries are written temp-file +
// fsync + atomic rename (then directory fsync), so a crash mid-write leaves
// either the old entry or none — never a half-written one, and a Get from
// disk verifies an embedded checksum and deletes anything it cannot verify,
// so corrupt entries are recomputed instead of served. In front of it sits a
// bounded LRU of payloads this process has already read from disk and
// verified, so a repeated Get costs a map lookup instead of a file read and a
// hash. The memory tier starts empty in every process, is filled only by a
// verified disk read, and drops an entry whenever Put or Poison touches its
// key.
type Cache struct {
	dir string

	hits, misses, writes, corrupt, poisoned atomic.Int64

	mu           sync.Mutex
	mem          map[[sha256.Size]byte]*list.Element // of *memEntry
	lru          *list.List                          // front = most recently used
	memBytes     int64
	budget       int64 // memBudget; tests shrink it
	memHits      int64
	memEvictions int64
	// memGen counts evictions by Put and Poison. A Get that went to disk
	// admits what it read only if memGen has not moved since its memory
	// probe, so bytes read before a concurrent Put or Poison landed are
	// never admitted after it.
	memGen int64
}

// memEntry is one verified payload held by the memory tier.
type memEntry struct {
	addr    [sha256.Size]byte
	payload []byte
}

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	return &Cache{
		dir:    dir,
		mem:    make(map[[sha256.Size]byte]*list.Element),
		lru:    list.New(),
		budget: memBudget,
	}, nil
}

// path shards entries into 256 subdirectories by hash prefix.
func (c *Cache) path(addr [sha256.Size]byte) string {
	h := hex.EncodeToString(addr[:])
	return filepath.Join(c.dir, h[:2], h+".rep")
}

// Get returns the cached payload for k, or (nil, false) on a miss. The
// returned slice is shared with the memory tier and with other callers:
// read-only, and never written by this package either. A key the memory tier
// holds is answered from it; otherwise the entry is read from disk, and one
// that fails any integrity check — unparseable meta, key mismatch, short
// payload, checksum mismatch — is removed and reported as a miss so the
// caller recomputes it, while one that passes is admitted to memory.
func (c *Cache) Get(k Key) ([]byte, bool) {
	addr := k.address()
	c.mu.Lock()
	if el, ok := c.mem[addr]; ok {
		c.lru.MoveToFront(el)
		c.memHits++
		c.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*memEntry).payload, true
	}
	gen := c.memGen
	c.mu.Unlock()

	p := c.path(addr)
	raw, err := os.ReadFile(p)
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	payload, ok := verifyEntry(raw, k)
	if !ok {
		c.corrupt.Add(1)
		c.misses.Add(1)
		os.Remove(p)
		return nil, false
	}
	// Cloned so the tier holds (and MemBytes counts) the payload alone, not
	// the file image with its meta line; clipped so an append by any one
	// holder of the shared slice copies instead of writing past its end.
	payload = slices.Clip(bytes.Clone(payload))
	c.admit(addr, payload, gen)
	c.hits.Add(1)
	return payload, true
}

// admit adds a payload just verified from disk to the memory tier, unless it
// alone exceeds the budget or a Put or Poison has landed since the Get that
// read it probed memory at generation gen. Least-recently-used entries make
// room.
func (c *Cache) admit(addr [sha256.Size]byte, payload []byte, gen int64) {
	size := int64(len(payload))
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget || gen != c.memGen {
		return
	}
	if _, ok := c.mem[addr]; ok {
		return // a concurrent Get admitted the same verified bytes
	}
	c.mem[addr] = c.lru.PushFront(&memEntry{addr: addr, payload: payload})
	c.memBytes += size
	for c.memBytes > c.budget {
		c.dropLocked(c.lru.Back())
	}
}

// evict drops k's entry from the memory tier after Put or Poison changed
// the disk entry, and fences off any Get still holding the bytes it replaced.
func (c *Cache) evict(addr [sha256.Size]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memGen++
	if el, ok := c.mem[addr]; ok {
		c.dropLocked(el)
	}
}

// dropLocked removes one entry from the memory tier. c.mu is held.
func (c *Cache) dropLocked(el *list.Element) {
	e := c.lru.Remove(el).(*memEntry)
	delete(c.mem, e.addr)
	c.memBytes -= int64(len(e.payload))
	c.memEvictions++
}

// verifyEntry splits a cache file into meta + payload and checks every
// integrity property. Split out (and unexported) so tests can target the
// verification logic with hand-corrupted inputs.
func verifyEntry(raw []byte, k Key) ([]byte, bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, false
	}
	var meta cacheMeta
	if err := json.Unmarshal(raw[:nl], &meta); err != nil {
		return nil, false
	}
	if meta.V != 1 || meta.Key != k {
		return nil, false
	}
	payload := raw[nl+1:]
	if len(payload) != meta.Size {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != meta.SHA256 {
		return nil, false
	}
	return payload, true
}

// Put stores payload under k. The write is crash-safe: a temp file in the
// final directory is written, fsynced, closed, and atomically renamed into
// place, then the directory itself is fsynced so the rename survives a
// crash. Errors are returned but safe to ignore — a failed Put is just a
// future miss. Put never fills the memory tier; it evicts k from it, so the
// next Get re-verifies what actually reached the disk.
func (c *Cache) Put(k Key, payload []byte) error {
	addr := k.address()
	p := c.path(addr)
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	meta, err := json.Marshal(cacheMeta{
		V: 1, Key: k, SHA256: hex.EncodeToString(sum[:]), Size: len(payload),
	})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(append(append(meta, '\n'), payload...)); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return err
	}
	c.evict(addr) // after the rename: see memGen
	syncDir(dir)
	c.writes.Add(1)
	return nil
}

// Poison removes any cached entry for k. Called when a trial under k
// panicked or timed out: whatever bytes may have been cached for that key
// are no longer trusted, in either tier.
func (c *Cache) Poison(k Key) {
	addr := k.address()
	if err := os.Remove(c.path(addr)); err == nil {
		c.poisoned.Add(1)
	}
	c.evict(addr) // after the remove: see memGen
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Writes:   c.writes.Load(),
		Corrupt:  c.corrupt.Load(),
		Poisoned: c.poisoned.Load(),

		MemHits:      c.memHits,
		MemEntries:   int64(len(c.mem)),
		MemBytes:     c.memBytes,
		MemEvictions: c.memEvictions,
	}
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Best-effort: some filesystems reject directory fsync and the rename is
// still atomic on them.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
