package sim

import (
	"math/rand"
	"testing"
)

// TestCachedSourceMatchesMathRand is the keystone of the reseed cache: for a
// spread of seeds (including the negative and zero specials of the seeding
// chain), a rand.Rand over a CachedSource must reproduce rand.NewSource's
// stream exactly, across the full derived-value API the repository uses.
func TestCachedSourceMatchesMathRand(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{0, 1, -1, 42, 1 << 40, -(1 << 40), 89482311, lfInt32Max} {
		ref := rand.New(rand.NewSource(seed))
		got := rand.New(NewCachedSource(seed))
		for i := 0; i < 2000; i++ {
			switch i % 5 {
			case 0:
				if a, b := ref.Int63(), got.Int63(); a != b {
					t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, b, a)
				}
			case 1:
				if a, b := ref.Float64(), got.Float64(); a != b {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, b, a)
				}
			case 2:
				if a, b := ref.Uint64(), got.Uint64(); a != b {
					t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, b, a)
				}
			case 3:
				if a, b := ref.Intn(977), got.Intn(977); a != b {
					t.Fatalf("seed %d draw %d: Intn %d != %d", seed, i, b, a)
				}
			case 4:
				if a, b := ref.NormFloat64(), got.NormFloat64(); a != b {
					t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, b, a)
				}
			}
		}
	}
}

// TestCachedSourceReseedSnapshot verifies the cache itself: re-seeding with
// a previously seen seed (the snapshot path) must restart the exact stream,
// interleaved arbitrarily with other seeds.
func TestCachedSourceReseedSnapshot(t *testing.T) {
	t.Parallel()
	s := NewCachedSource(7)
	r := rand.New(s)
	first := make([]int64, 100)
	for i := range first {
		first[i] = r.Int63()
	}
	r.Seed(99) // different seed in between
	r.Int63()
	r.Seed(7) // snapshot restore
	for i := range first {
		if got := r.Int63(); got != first[i] {
			t.Fatalf("draw %d after cached reseed: %d, want %d", i, got, first[i])
		}
	}
	r.Seed(99) // 99 is cached now too
	r.Seed(7)
	if got := r.Int63(); got != first[0] {
		t.Fatalf("draw after double cached reseed: %d, want %d", got, first[0])
	}
}

// TestCachedSourceSnapshotsBounded pins the snapshot cap: a source fed
// never-seen seeds (a long-lived server) keeps at most snapSlots snapshots,
// recurring seeds within the cap keep hitting, and every seed — retained,
// evicted and re-learned, or overwriting a slot — still yields math/rand's
// stream.
func TestCachedSourceSnapshotsBounded(t *testing.T) {
	t.Parallel()
	s := NewCachedSource(0)
	r := rand.New(s)
	check := func(seed int64) {
		t.Helper()
		ref := rand.New(rand.NewSource(seed))
		r.Seed(seed)
		for i := 0; i < 700; i++ { // past one full turn of the 607-word register
			if a, b := ref.Int63(), r.Int63(); a != b {
				t.Fatalf("seed %d draw %d: %d != %d", seed, i, b, a)
			}
		}
	}
	for seed := int64(1); seed <= 10_000; seed++ {
		s.Seed(seed)
		if len(s.snap) > snapSlots || len(s.snapSeed) != len(s.snap) {
			t.Fatalf("after %d distinct seeds: %d snapshots for %d seeds, cap %d", seed, len(s.snap), len(s.snapSeed), snapSlots)
		}
	}
	check(3)      // evicted long ago: re-learned, overwriting the oldest slot
	check(10_000) // still retained: restored from its snapshot
	check(3)      // retained again
	// The drawn-from register must not have leaked into a snapshot.
	check(10_000)
	// 8 recurring seeds (the incast grids) fit: after one pass none is evicted.
	for pass := 0; pass < 3; pass++ {
		for seed := int64(20_000); seed < 20_008; seed++ {
			s.Seed(seed)
		}
	}
	for seed := int64(20_000); seed < 20_008; seed++ {
		found := false
		for _, have := range s.snapSeed {
			found = found || have == seed
		}
		if !found {
			t.Fatalf("recurring seed %d was evicted", seed)
		}
	}
}
