package shard

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/store"
)

// TestShardedStoreDuplicateAcrossCalls checks ErrExists surfaces
// through the facade exactly as on a bare store.
func TestShardedStoreDuplicateAcrossCalls(t *testing.T) {
	s := NewStore(8)
	if _, err := s.LoadXML("dup", []byte("<r/>")); err != nil {
		t.Fatal(err)
	}
	_, err := s.GenerateXMark("dup", 0.001, 1)
	if !errors.Is(err, store.ErrExists) {
		t.Fatalf("duplicate id error = %v, want ErrExists", err)
	}
}

// TestOneShardStoreIsFlat: whatever count it is given, NewStore builds
// one registry, and every document lands in it.
func TestOneShardStoreIsFlat(t *testing.T) {
	for _, n := range []int{-3, 0, 1, 4} {
		s := NewStore(n)
		for i := 0; i < 5; i++ {
			if _, err := s.LoadXML(fmt.Sprintf("d%d", i), []byte("<r/>")); err != nil {
				t.Fatal(err)
			}
		}
		if s.Len() != 5 || len(s.List()) != 5 {
			t.Errorf("NewStore(%d): Len %d, List %d, want 5/5", n, s.Len(), len(s.List()))
		}
	}
}

// TestRouterEdgeCases: every id, the empty one and a NUL included,
// routes to partition 0.
func TestRouterEdgeCases(t *testing.T) {
	r := NewStore(8).Router()
	for _, id := range []string{"", "a", "\x00", "doc-0", "tenant-7/corpus/xmark-7.xml"} {
		if s := r.Shard(id); s != 0 {
			t.Errorf("Shard(%q) = %d, want 0", id, s)
		}
	}
}
