package shard

import (
	"fmt"
	"testing"
)

// syntheticIDs are the 10k doc ids the distribution properties are
// checked over: a mix of sequential, hierarchical and hash-unfriendly
// shapes, the way real corpora name documents.
func syntheticIDs() []string {
	ids := make([]string, 0, 10_000)
	for i := 0; i < 4000; i++ {
		ids = append(ids, fmt.Sprintf("doc-%d", i))
	}
	for i := 0; i < 3000; i++ {
		ids = append(ids, fmt.Sprintf("tenant-%d/corpus/xmark-%d.xml", i%97, i))
	}
	for i := 0; i < 3000; i++ {
		ids = append(ids, fmt.Sprintf("%08x", i*2654435761))
	}
	return ids
}

// TestRouterDeterministicAcrossRestarts pins routing to fixed golden
// assignments: the router gives the same answer in every process and on
// every platform, so tests and benchmarks that pick one id per shard
// pick the same ids every run. Nothing persisted depends on it (no token
// names a shard); a change to the hash only re-pins this table.
func TestRouterDeterministicAcrossRestarts(t *testing.T) {
	// Two independently constructed routers agree on everything (no
	// map-iteration or seed dependence)...
	a, b := NewRouter(4), NewRouter(4)
	for _, id := range syntheticIDs() {
		if a.Shard(id) != b.Shard(id) {
			t.Fatalf("routers disagree on %q: %d vs %d", id, a.Shard(id), b.Shard(id))
		}
	}
	// ...and match the assignments recorded for hash64(id) mod 4 (a
	// simulated process restart).
	golden := map[string]int{
		"doc-0":    1,
		"doc-1":    2,
		"doc-2":    1,
		"xm":       1,
		"hot":      0,
		"tenant-7": 2,
	}
	for id, want := range golden {
		if got := a.Shard(id); got != want {
			t.Errorf("Shard(%q) = %d, want pinned %d (the hash changed: re-pin)", id, got, want)
		}
	}
}

// TestRouterUniformity checks hash64(id) mod n spreads 10k
// synthetic ids within ±20% of the uniform share at every shard count
// the daemon is likely to run.
func TestRouterUniformity(t *testing.T) {
	ids := syntheticIDs()
	for _, n := range []int{2, 3, 4, 8, 16} {
		r := NewRouter(n)
		counts := make([]int, n)
		for _, id := range ids {
			counts[r.Shard(id)]++
		}
		mean := float64(len(ids)) / float64(n)
		for s, c := range counts {
			if dev := float64(c)/mean - 1; dev < -0.20 || dev > 0.20 {
				t.Errorf("n=%d shard %d holds %d ids (%.1f%% of uniform share %0.f)",
					n, s, c, 100*float64(c)/mean, mean)
			}
		}
	}
}

// TestRouterEdgeCases pins clamping and the single-shard fast path.
func TestRouterEdgeCases(t *testing.T) {
	if got := NewRouter(0).NumShards(); got != 1 {
		t.Errorf("NewRouter(0) shards = %d, want 1", got)
	}
	if got := NewRouter(-3).Shard("anything"); got != 0 {
		t.Errorf("negative shard count must clamp to one shard, got shard %d", got)
	}
	r := NewRouter(8)
	for _, id := range []string{"", "a", "\x00", "doc-0"} {
		if s := r.Shard(id); s < 0 || s >= 8 {
			t.Errorf("Shard(%q) = %d out of range", id, s)
		}
	}
}
