package sim

import (
	"math/rand"
	"reflect"
)

// CachedSource is math/rand's own generator (rand.NewSource) under a seed
// memo. Re-seeding is the dominant setup cost of a simulation trial — filling
// the generator's 607-word register walks a ~1900-step Lehmer chain — and
// arena-cached experiment runners re-seed the same generators with a small
// set of recurring seeds (one per trial of a sweep, identical across the
// grid's shapes). A CachedSource pays the chain once per distinct seed and
// restores a snapshot on every later Seed call with that seed: a memcpy.
//
// Every draw and every new seed goes to the embedded generator, so the stream
// is rand.NewSource's by construction and no report byte depends on the memo.
// A snapshot is a value copy of the generator's state, complete because that
// state is a flat struct (TestCachedSourceStateIsFlat), ~5 KB each. A source
// keeps the snapSlots most recently learned seeds: an experiment arena sees
// one seed per trial index of a sweep — a handful, all retained — while a
// long-lived server fed never-seen seeds overwrites the oldest snapshot.
type CachedSource struct {
	rand.Source64
	// state is the generator's state, addressable: restoring a snapshot is
	// state.Set, taking one is Set the other way.
	state reflect.Value
	// snapSeed[i] is the seed whose post-seed state snap[i] holds; once both
	// are full, oldest is the slot the next new seed overwrites.
	snapSeed []int64
	snap     []reflect.Value
	oldest   int
}

// snapSlots bounds the snapshots one source retains (~80 KB): twice the 8
// recurring seeds the incast grids sweep, few enough that finding a seed is
// a scan of two cache lines.
const snapSlots = 16

// NewCachedSource returns a seeded CachedSource. The result is valid for
// rand.New: it implements both rand.Source and rand.Source64.
func NewCachedSource(seed int64) *CachedSource {
	src := rand.NewSource(seed).(rand.Source64)
	s := &CachedSource{Source64: src, state: reflect.ValueOf(src).Elem()}
	s.learn(seed)
	return s
}

// Seed puts the generator in the state rand.NewSource(seed) starts from,
// restoring a snapshot when this source has been seeded with the same value
// before.
func (s *CachedSource) Seed(seed int64) {
	for i, have := range s.snapSeed {
		if have == seed {
			s.state.Set(s.snap[i])
			return
		}
	}
	s.Source64.Seed(seed)
	s.learn(seed)
}

// learn snapshots the freshly seeded state under seed, in a new slot while
// there is room and over the oldest one after that.
func (s *CachedSource) learn(seed int64) {
	if len(s.snap) < snapSlots {
		v := reflect.New(s.state.Type()).Elem()
		v.Set(s.state)
		s.snapSeed = append(s.snapSeed, seed)
		s.snap = append(s.snap, v)
		return
	}
	s.snapSeed[s.oldest] = seed
	s.snap[s.oldest].Set(s.state)
	s.oldest = (s.oldest + 1) % snapSlots
}
