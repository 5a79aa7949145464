package shard

import (
	"sort"

	"repro/internal/store"
	"repro/internal/tree"
)

// Store is the sharded document registry: N independent store.Store
// partitions behind a Router. Every id-addressed call
// touches exactly one partition, so loads, lookups and evictions of
// documents on different shards never contend on a shared lock. The
// method set mirrors store.Store, which lets the serving layer (and
// tests) treat a 1-shard Store as a drop-in single registry.
type Store struct {
	router *Router
	parts  []*store.Store
}

// NewStore builds an n-shard store; n < 1 is clamped to 1.
func NewStore(n int) *Store {
	r := NewRouter(n)
	parts := make([]*store.Store, r.NumShards())
	for i := range parts {
		parts[i] = store.New()
	}
	return &Store{router: r, parts: parts}
}

// Router exposes the routing function (shared with the serving layer so
// engines and caches agree with document placement).
func (s *Store) Router() *Router { return s.router }

// NumShards reports the partition count.
func (s *Store) NumShards() int { return len(s.parts) }

// ShardFor returns the partition index owning id.
func (s *Store) ShardFor(id string) int { return s.router.Shard(id) }

// Part returns partition i directly (per-shard stats, tests).
func (s *Store) Part(i int) *store.Store { return s.parts[i] }

func (s *Store) part(id string) *store.Store { return s.parts[s.router.Shard(id)] }

// Add registers an already-built document on the owning shard.
func (s *Store) Add(id string, d *tree.Document, src store.Source) (*store.Handle, error) {
	return s.part(id).Add(id, d, src)
}

// LoadXML parses XML bytes and registers the document on its shard.
func (s *Store) LoadXML(id string, src []byte) (*store.Handle, error) {
	return s.part(id).LoadXML(id, src)
}

// LoadXMLFile reads and parses an XML file and registers the document.
func (s *Store) LoadXMLFile(id, path string) (*store.Handle, error) {
	return s.part(id).LoadXMLFile(id, path)
}

// GenerateXMark generates a deterministic XMark document and registers it.
func (s *Store) GenerateXMark(id string, scale float64, seed int64) (*store.Handle, error) {
	return s.part(id).GenerateXMark(id, scale, seed)
}

// LoadMapped opens an XQO2 file zero-copy (mmap) and registers it on the
// owning shard.
func (s *Store) LoadMapped(id, path string) (*store.Handle, error) {
	return s.part(id).LoadMapped(id, path)
}

// OpenMapped is LoadMapped's open half (see store.Store.OpenMapped).
func (s *Store) OpenMapped(id, path string) (*store.Handle, error) {
	return s.part(id).OpenMapped(id, path)
}

// PublishMapped is LoadMapped's publish half, on the owning shard.
func (s *Store) PublishMapped(h *store.Handle) (*store.Handle, error) {
	return s.part(h.ID).PublishMapped(h)
}

// SetResidentBudget splits a process-wide mapped-bytes budget evenly
// across shards; 0 or negative means unlimited everywhere. Per-shard
// budgets keep enforcement lock-local, at the cost of a shard not being
// able to borrow headroom from an idle neighbor.
func (s *Store) SetResidentBudget(b int64) {
	per := b
	if b > 0 {
		per = b / int64(len(s.parts))
		if per < 1 {
			per = 1
		}
	}
	for _, p := range s.parts {
		p.SetResidentBudget(per)
	}
}

// SetVerifyResident toggles full structural verification for every
// shard's mapped loads (see store.Store.SetVerifyResident).
func (s *Store) SetVerifyResident(v bool) {
	for _, p := range s.parts {
		p.SetVerifyResident(v)
	}
}

// Get returns the handle for id from its owning shard.
func (s *Store) Get(id string) (*store.Handle, bool) {
	return s.part(id).Get(id)
}

// Evict removes id from its owning shard, reporting whether it was present.
func (s *Store) Evict(id string) bool {
	return s.part(id).Evict(id)
}

// Patch applies a subtree patch on the owning shard, publishing a new
// generation of id (see store.Store.Patch).
func (s *Store) Patch(id string, base store.Gen, pt tree.Patch) (*store.Handle, error) {
	return s.part(id).Patch(id, base, pt)
}

// Len reports the number of resident documents across all shards.
func (s *Store) Len() int {
	n := 0
	for _, p := range s.parts {
		n += p.Len()
	}
	return n
}

// List returns a merged snapshot of per-document stats sorted by id —
// the single-registry view, shard placement elided.
func (s *Store) List() []store.Stats {
	out := make([]store.Stats, 0, s.Len())
	for _, p := range s.parts {
		out = append(out, p.List()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DocStats is one resident document plus the shard that owns it.
type DocStats struct {
	store.Stats
	Shard int `json:"shard"`
}

// ListSharded returns the merged per-document stats annotated with each
// document's owning shard, sorted by id.
func (s *Store) ListSharded() []DocStats {
	out := make([]DocStats, 0, s.Len())
	for i, p := range s.parts {
		for _, st := range p.List() {
			out = append(out, DocStats{Stats: st, Shard: i})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
