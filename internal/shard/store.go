// Package shard is the store API cmd/xpqbench compiles against, left
// from when xpqd spread its documents over N partitions. The store has
// one partition (DESIGN.md "One partition"): Store is that store,
// NewStore ignores its count, every document id routes to 0, and the
// resident budget is ignored.
package shard

import "repro/internal/store"

// Store is the one document registry.
type Store struct {
	*store.Store
}

// NewStore returns an empty store. The partition count is ignored.
func NewStore(int) *Store { return &Store{store.New()} }

// Router is the routing function of a one-partition store.
type Router struct{}

// Router returns the store's routing function.
func (*Store) Router() Router { return Router{} }

// Shard returns the partition owning id, which is always 0.
func (Router) Shard(string) int { return 0 }

// SetResidentBudget is ignored: the kernel pages mapped documents, and
// the store keeps no budget of its own (DESIGN.md "Paging").
func (*Store) SetResidentBudget(int64) {}
