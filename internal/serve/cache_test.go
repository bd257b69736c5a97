package serve

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testKey(code string) Key {
	return Key{Experiment: "parklot", Variant: "pcc", Seed: 42, Scale: 0.05, Code: code}
}

func TestCacheRoundtrip(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("v1")
	payload := []byte(`{"experiment":"parklot","report":"== parklot ==\n"}`)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on an empty cache")
	}
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = (%q, %v), want stored payload", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 write", st)
	}
}

func TestCacheKeyIsolation(t *testing.T) {
	c, _ := NewCache(t.TempDir())
	k := testKey("v1")
	c.Put(k, []byte("result-v1"))
	// Any field change — including only the code version — must miss.
	for name, other := range map[string]Key{
		"code":  {Experiment: k.Experiment, Variant: k.Variant, Seed: k.Seed, Scale: k.Scale, Code: "v2"},
		"seed":  {Experiment: k.Experiment, Variant: k.Variant, Seed: 43, Scale: k.Scale, Code: k.Code},
		"scale": {Experiment: k.Experiment, Variant: k.Variant, Seed: k.Seed, Scale: 0.06, Code: k.Code},
		"exp":   {Experiment: "theory", Variant: k.Variant, Seed: k.Seed, Scale: k.Scale, Code: k.Code},
	} {
		if _, ok := c.Get(other); ok {
			t.Errorf("%s-differing key hit the cache", name)
		}
	}
}

// corruptEntry mutates the single cache file under dir with fn.
func corruptEntry(t *testing.T, dir string, fn func([]byte) []byte) {
	t.Helper()
	var path string
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ".rep") {
			path = p
		}
		return nil
	})
	if path == "" {
		t.Fatal("no cache entry on disk")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCacheTruncationDetected(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(dir)
	k := testKey("v1")
	payload := []byte("a perfectly good result line with some length to it")
	c.Put(k, payload)
	corruptEntry(t, dir, func(raw []byte) []byte { return raw[:len(raw)-7] })

	if _, ok := c.Get(k); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", st.Corrupt)
	}
	// The corrupt file must be gone so the recompute path can repopulate.
	if _, ok := c.Get(k); ok {
		t.Fatal("corrupt entry still present after detection")
	}
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("recomputed entry does not round-trip")
	}
}

func TestCacheBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(dir)
	k := testKey("v1")
	c.Put(k, []byte("bytes whose integrity matters"))
	corruptEntry(t, dir, func(raw []byte) []byte {
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)-3] ^= 0x40 // flip one payload bit
		return flipped
	})
	if _, ok := c.Get(k); ok {
		t.Fatal("bit-flipped entry served as a hit")
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", st.Corrupt)
	}
}

func TestCacheGarbageMetaDetected(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(dir)
	k := testKey("v1")
	c.Put(k, []byte("payload"))
	corruptEntry(t, dir, func(raw []byte) []byte { return append([]byte("not json"), raw...) })
	if _, ok := c.Get(k); ok {
		t.Fatal("garbage-meta entry served as a hit")
	}
}

func TestCachePoison(t *testing.T) {
	c, _ := NewCache(t.TempDir())
	k := testKey("v1")
	c.Put(k, []byte("soon to be distrusted"))
	c.Poison(k)
	if _, ok := c.Get(k); ok {
		t.Fatal("poisoned entry served as a hit")
	}
	if st := c.Stats(); st.Poisoned != 1 {
		t.Errorf("Poisoned = %d, want 1", st.Poisoned)
	}
	// Poisoning an absent key is a no-op, not a counter bump.
	c.Poison(testKey("v2"))
	if st := c.Stats(); st.Poisoned != 1 {
		t.Errorf("Poisoned = %d after no-op poison, want 1", st.Poisoned)
	}
}

// seedKey is testKey("v1") on another seed.
func seedKey(seed int) Key {
	k := testKey("v1")
	k.Seed = int64(seed)
	return k
}

// putGet stores payload under k and reads it back once, which is the only
// way into the memory tier.
func putGet(t *testing.T, c *Cache, k Key, payload []byte) {
	t.Helper()
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(k); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after Put = (%q, %v)", got, ok)
	}
}

// TestMemTierAdmitsOnVerifiedRead: Put alone leaves memory empty; the first
// Get reads disk and admits; the second is served from memory. Hits counts
// both.
func TestMemTierAdmitsOnVerifiedRead(t *testing.T) {
	c, _ := NewCache(t.TempDir())
	k, payload := testKey("v1"), []byte("twenty bytes of line")
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.MemEntries != 0 || st.MemBytes != 0 {
		t.Fatalf("Put filled the memory tier: %+v", st)
	}
	for i, want := range []CacheStats{
		{Hits: 1, Writes: 1, MemHits: 0, MemEntries: 1, MemBytes: int64(len(payload))},
		{Hits: 2, Writes: 1, MemHits: 1, MemEntries: 1, MemBytes: int64(len(payload))},
	} {
		got, ok := c.Get(k)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("Get %d = (%q, %v)", i, got, ok)
		}
		if st := c.Stats(); st != want {
			t.Errorf("after Get %d: stats = %+v, want %+v", i, st, want)
		}
	}
}

// TestMemTierPutEvicts: a Put over an admitted key drops it from memory, so
// the next Get goes back to disk and verifies what is there.
func TestMemTierPutEvicts(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(dir)
	k := testKey("v1")
	putGet(t, c, k, []byte("first result"))
	if err := c.Put(k, []byte("second result")); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.MemEntries != 0 || st.MemBytes != 0 || st.MemEvictions != 1 {
		t.Fatalf("Put left the old entry in memory: %+v", st)
	}
	// The next Get is a disk read: damage on disk is seen, not masked.
	corruptEntry(t, dir, func(raw []byte) []byte { return raw[:len(raw)-1] })
	if _, ok := c.Get(k); ok {
		t.Fatal("Get after Put did not re-verify from disk")
	}
	putGet(t, c, k, []byte("second result"))
	if st := c.Stats(); st.MemHits != 0 || st.MemEntries != 1 {
		t.Errorf("stats = %+v, want the re-read entry admitted and no memory hit yet", st)
	}
}

// TestMemTierPoisonEvicts: a poisoned key is gone from both tiers.
func TestMemTierPoisonEvicts(t *testing.T) {
	c, _ := NewCache(t.TempDir())
	k := testKey("v1")
	putGet(t, c, k, []byte("soon to be distrusted"))
	c.Poison(k)
	if _, ok := c.Get(k); ok {
		t.Fatal("poisoned entry served from memory")
	}
	if st := c.Stats(); st.MemEntries != 0 || st.MemBytes != 0 || st.Poisoned != 1 {
		t.Errorf("stats = %+v, want an empty memory tier and 1 poisoned", st)
	}
}

// TestMemTierStaleReadNotAdmitted replays the interleaving the generation
// fence exists for: a Get probes memory and reads the disk entry, a Poison (or
// Put) lands, and only then does the Get try to admit the bytes it read.
func TestMemTierStaleReadNotAdmitted(t *testing.T) {
	c, _ := NewCache(t.TempDir())
	k, payload := testKey("v1"), []byte("read before the poison landed")
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	gen := c.memGen
	c.mu.Unlock()
	c.Poison(k)
	c.admit(k.address(), payload, gen)
	if st := c.Stats(); st.MemEntries != 0 {
		t.Fatalf("bytes read before a Poison were admitted after it: %+v", st)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("poisoned entry served")
	}
}

// TestMemTierLRUWithinBudget inserts ten times the budget while re-reading
// key 0 throughout: the byte count never exceeds the budget, eviction takes
// the least recently used entry (so key 0 survives and the oldest untouched
// keys do not), and the newest keys are still held.
func TestMemTierLRUWithinBudget(t *testing.T) {
	c, _ := NewCache(t.TempDir())
	c.budget = 1000
	const size, n = 100, 100 // 10 entries fit; 100 are inserted
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, size) }
	for i := 0; i < n; i++ {
		putGet(t, c, seedKey(i), payload(i))
		if _, ok := c.Get(seedKey(0)); !ok {
			t.Fatalf("key 0 lost after insert %d", i)
		}
		if st := c.Stats(); st.MemBytes > c.budget || st.MemBytes != st.MemEntries*size {
			t.Fatalf("after insert %d: %+v exceeds budget %d", i, st, c.budget)
		}
	}
	st := c.Stats()
	if st.MemEntries != 10 || st.MemEvictions != n-10 {
		t.Errorf("stats = %+v, want 10 entries held and %d evicted", st, n-10)
	}
	fromMemory := func(i int) bool {
		before := c.Stats().MemHits
		if got, ok := c.Get(seedKey(i)); !ok || !bytes.Equal(got, payload(i)) {
			t.Fatalf("key %d: Get = (%q, %v)", i, got, ok)
		}
		return c.Stats().MemHits == before+1
	}
	for _, i := range []int{0, n - 1, n - 9} {
		if !fromMemory(i) {
			t.Errorf("key %d (recently used) was evicted", i)
		}
	}
	if fromMemory(1) {
		t.Error("key 1 (least recently used) was still in memory")
	}
}

// TestMemTierOversizePayload: a payload larger than the whole budget is
// served from disk every time and never admitted.
func TestMemTierOversizePayload(t *testing.T) {
	c, _ := NewCache(t.TempDir())
	c.budget = 64
	k, big := testKey("v1"), bytes.Repeat([]byte("x"), 65)
	putGet(t, c, seedKey(1), []byte("small"))
	putGet(t, c, k, big)
	putGet(t, c, k, big)
	if st := c.Stats(); st.MemEntries != 1 || st.MemBytes != 5 || st.MemHits != 0 || st.MemEvictions != 0 {
		t.Errorf("stats = %+v, want only the small entry held and nothing evicted for the big one", st)
	}
}

// TestMemTierFreshCacheVerifiesDisk: memory is per Cache, never persisted or
// inherited. Damage done to the file while one Cache holds the entry in
// memory is detected by the next Cache opened over the directory.
func TestMemTierFreshCacheVerifiesDisk(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"truncated": func(raw []byte) []byte { return raw[:len(raw)-7] },
		"bit-flipped": func(raw []byte) []byte {
			flipped := append([]byte(nil), raw...)
			flipped[len(flipped)-3] ^= 0x40
			return flipped
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			old, _ := NewCache(dir)
			k := testKey("v1")
			putGet(t, old, k, []byte("bytes whose integrity matters"))
			if old.Stats().MemEntries != 1 {
				t.Fatal("entry not admitted")
			}
			corruptEntry(t, dir, damage)

			fresh, _ := NewCache(dir)
			if got, ok := fresh.Get(k); ok {
				t.Fatalf("fresh cache served unverified bytes %q", got)
			}
			if st := fresh.Stats(); st.Corrupt != 1 || st.MemEntries != 0 {
				t.Errorf("fresh cache stats = %+v, want 1 corrupt and nothing in memory", st)
			}
		})
	}
}

// TestGetPayloadIsNeverWritten: the slice Get returns is shared with the
// memory tier and every other caller. Nothing the package does afterwards —
// streaming it, serving it again, evicting it, overwriting its key — may
// change its bytes.
func TestGetPayloadIsNeverWritten(t *testing.T) {
	c, _ := NewCache(t.TempDir())
	c.budget = 64
	k, payload := testKey("v1"), []byte(`{"experiment":"parklot","report":"r"}`)
	putGet(t, c, k, payload)
	held, _ := c.Get(k)
	again, _ := c.Get(k)
	if &held[0] != &again[0] {
		t.Fatal("memory hits do not share one slice; this test assumes they do")
	}
	lw := &lineWriter{w: io.Discard}
	for i := 0; i < 3; i++ {
		if err := lw.writeRaw(held); err != nil {
			t.Fatal(err)
		}
	}
	putGet(t, c, seedKey(2), bytes.Repeat([]byte("y"), 60)) // evicts k by LRU
	putGet(t, c, k, []byte("a different, longer payload for the same key"))
	c.Poison(k)
	if !bytes.Equal(held, payload) || len(held) != cap(held) {
		t.Errorf("held payload = %q (cap %d), want it untouched and unextendable: %q", held, cap(held), payload)
	}
}

// TestMemTierHammer runs concurrent Get, Put and Poison over 8 keys (under
// -race in CI). Every Get must be a miss or exactly that key's payload, and
// the tier's accounting must still add up afterwards.
func TestMemTierHammer(t *testing.T) {
	c, _ := NewCache(t.TempDir())
	c.budget = 5 * 64 // room for 5 of the 8, so LRU eviction runs too
	const keys, iters = 8, 300
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte('0' + i)}, 64) }
	var wg sync.WaitGroup
	worker := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				fn(n % keys)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		worker(func(i int) {
			if got, ok := c.Get(seedKey(i)); ok && !bytes.Equal(got, payload(i)) {
				t.Errorf("key %d: Get = %q", i, got)
			}
		})
	}
	for g := 0; g < 2; g++ {
		worker(func(i int) {
			if err := c.Put(seedKey(i), payload(i)); err != nil {
				t.Errorf("Put: %v", err)
			}
		})
	}
	worker(func(i int) { c.Poison(seedKey(i)) })
	wg.Wait()

	st := c.Stats()
	if st.Corrupt != 0 || st.MemBytes > c.budget || st.MemBytes != 64*st.MemEntries {
		t.Errorf("stats = %+v, want 0 corrupt and mem_bytes = 64 × mem_entries <= %d", st, c.budget)
	}
	if st.Hits+st.Misses != 4*iters {
		t.Errorf("hits %d + misses %d != %d Gets", st.Hits, st.Misses, 4*iters)
	}
	// Quiesced: every key settles to a miss or its payload, from both tiers.
	for i := 0; i < keys; i++ {
		for pass := 0; pass < 2; pass++ {
			if got, ok := c.Get(seedKey(i)); ok && !bytes.Equal(got, payload(i)) {
				t.Errorf("key %d after the hammer: %q", i, got)
			}
		}
	}
}

func TestLedgerRingWraps(t *testing.T) {
	l := NewLedger(3)
	for i := 0; i < 5; i++ {
		l.Record(Key{Experiment: "e", Seed: int64(i)}, errSeed(i))
	}
	recs, total := l.Snapshot()
	if total != 5 || len(recs) != 3 {
		t.Fatalf("snapshot = %d records / %d total, want 3 / 5", len(recs), total)
	}
	for i, r := range recs {
		if want := int64(i + 2); r.Seed != want { // oldest retained is #2
			t.Errorf("recs[%d].Seed = %d, want %d", i, r.Seed, want)
		}
	}
}

type seedErr int

func (e seedErr) Error() string { return "failure" }
func errSeed(i int) error       { return seedErr(i) }
