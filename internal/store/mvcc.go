package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/tree"
)

// ErrGone is wrapped by Acquire when the requested generation of
// a resident document has been retired (garbage-collected); the HTTP
// layer maps it to 410 for cursor resumes.
var ErrGone = errors.New("generation retired")

// ErrConflict is wrapped by Patch when the caller's base generation is
// no longer the latest — the optimistic-concurrency failure. The HTTP
// layer maps it to 409.
var ErrConflict = errors.New("base generation is not latest")

// chain is the MVCC history of one document: an append-only sequence of
// immutable generations. gens holds every generation still readable
// (latest, plus older ones kept alive by pins or leases).
//
// One lock, held only for map-sized critical sections: a query's
// Acquire and Release, a stats walk, and a patch's publish. A patch
// splices with no lock held, so readers never wait for one to be
// applied. latest is stored only under mu, and only by publish and
// Evict; patch, Get, List and the stats paths read it without.
type chain struct {
	mu     sync.Mutex
	latest atomic.Pointer[Handle]
	gens   map[Gen]*genEntry
}

// genEntry tracks what keeps one generation alive: explicit pins
// (queries in flight) and time-bounded leases (issued cursor
// tokens, redeemed when the cursor is consumed). Leases are fungible —
// any redeem releases the soonest-expiring one — because the store
// cannot tell which outstanding token came back.
type genEntry struct {
	h      *Handle
	pins   int
	leases []int64 // unix-nano expiries, unordered
}

// genSeedMask keeps entropy-seeded generation counters within 2^52 so
// they survive a round trip through JSON numbers (float64 mantissa).
const genSeedMask = 1<<52 - 1

// newChain wraps a freshly built generation-one handle. The counter is
// seeded from the clock (scrambled by the Fibonacci-hashing constant)
// rather than starting at 1, so a generation id never aliases a
// different incarnation of the same document id — across evict+reload
// and across daemon restarts.
func newChain(h *Handle) *chain {
	seed := Gen{uint64(time.Now().UnixNano()) * 0x9E3779B97F4A7C15 & genSeedMask}
	if seed == NoGen {
		seed = seed.next()
	}
	h.Gen = seed
	h.Stats.Gen = seed
	ch := &chain{gens: map[Gen]*genEntry{seed: {h: h}}}
	ch.latest.Store(h)
	return ch
}

// Patch applies a subtree patch to the latest generation of id and
// publishes the result as a new generation, maintaining the index
// incrementally from the parent generation instead of rebuilding. If
// base is not NoGen the patch only applies when base is still the latest
// generation (optimistic concurrency); NoGen means "latest, whatever it
// is".
// Existing readers are untouched: they keep the generation they pinned.
func (s *Store) Patch(id string, base Gen, pt tree.Patch) (*Handle, error) {
	ch := s.chainFor(id)
	if ch == nil {
		return nil, fmt.Errorf("store: document %q: %w", id, ErrNotFound)
	}
	h, retired, err := ch.patch(id, base, pt)
	if err != nil {
		return nil, err
	}
	s.patches.Add(1)
	s.retired.Add(retired)
	return h, nil
}

// patch splices pt onto the latest generation with no lock held, then
// publishes the result, returning how many generations the publish
// retired. A writer that lost the race to another publish finds a new
// latest: with an explicit base that is ErrConflict, as if it had
// arrived second; a NoGen patch splices again on the new latest. An
// evicted chain has no latest, which is ErrNotFound.
func (ch *chain) patch(id string, base Gen, pt tree.Patch) (*Handle, uint64, error) {
	for {
		cur := ch.latest.Load()
		if cur == nil {
			return nil, 0, fmt.Errorf("store: document %q: %w", id, ErrNotFound)
		}
		if base != NoGen && cur.Gen != base {
			return nil, 0, fmt.Errorf("store: document %q: patch base gen %s, latest is %s: %w",
				id, base, cur.Gen, ErrConflict)
		}
		newDoc, dl, err := cur.Doc.Apply(pt)
		if err != nil {
			return nil, 0, err
		}
		h := newHandle(id, newDoc, index.Apply(cur.Index, newDoc, dl), SourcePatch)
		if retired, ok := ch.publish(cur, h); ok {
			return h, retired, nil
		}
	}
}

// publish makes h, spliced from cur, the latest generation, numbered
// after cur, if cur is still the latest; otherwise it changes nothing
// and reports false.
func (ch *chain) publish(cur, h *Handle) (uint64, bool) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.latest.Load() != cur {
		return 0, false
	}
	gen := cur.Gen.next()
	h.Gen, h.Stats.Gen = gen, gen
	ch.gens[gen] = &genEntry{h: h}
	ch.latest.Store(h)
	return ch.sweepLocked(time.Now().UnixNano()), true
}

// Acquire returns generation gen of id — NoGen means the latest — with
// a pin taken in the same critical section as the lookup: whatever
// patches land afterwards, the generation stays in its chain (readable,
// and leasable) until the matching Release. This is what every query
// holds from handle lookup until its continuation token's lease is
// placed, so a token can never be issued for a generation that was
// retired while the query ran. A missing document is ErrNotFound; a
// resident document whose requested generation has been retired is
// ErrGone (the time-travel window closed).
func (s *Store) Acquire(id string, gen Gen) (*Handle, error) {
	ch := s.chainFor(id)
	if ch == nil {
		return nil, fmt.Errorf("store: document %q: %w", id, ErrNotFound)
	}
	ch.mu.Lock()
	if gen == NoGen {
		if h := ch.latest.Load(); h != nil {
			gen = h.Gen
		}
	}
	e := ch.gens[gen]
	if e != nil {
		e.pins++
	}
	ch.mu.Unlock()
	switch {
	case e != nil:
		return e.h, nil
	case gen == NoGen:
		// Evicted between chainFor and the lock.
		return nil, fmt.Errorf("store: document %q: %w", id, ErrNotFound)
	}
	return nil, fmt.Errorf("store: document %q generation %s: %w", id, gen, ErrGone)
}

// Release drops an Acquire pin on (id, gen) and settles the cursor
// leases of the request that held it, all in one critical section while
// the pin still guarantees the generation is live: redeem releases one
// outstanding lease (the consumed token's; leases are fungible, so the
// soonest-expiring one goes), and a non-zero lease deadline places a
// new one (the lifetime of the token being issued; an abandoned token
// simply expires). When the last pin and lease of a non-latest
// generation drain, the generation is retired. A chain evicted since
// the Acquire has nothing left to settle: its tokens answer 410, as
// eviction promises.
func (s *Store) Release(id string, gen Gen, lease time.Time, redeem bool) {
	ch := s.chainFor(id)
	if ch == nil {
		return
	}
	ch.mu.Lock()
	if e, ok := ch.gens[gen]; ok {
		if e.pins > 0 {
			e.pins--
		}
		if redeem && len(e.leases) > 0 {
			min := 0
			for i, exp := range e.leases {
				if exp < e.leases[min] {
					min = i
				}
			}
			e.leases[min] = e.leases[len(e.leases)-1]
			e.leases = e.leases[:len(e.leases)-1]
		}
		if !lease.IsZero() {
			e.leases = append(e.leases, lease.UnixNano())
		}
		// Only this generation's holds changed, and the latest is never
		// retired: the common release — a query of the latest generation
		// — has nothing to sweep. (Expired leases elsewhere wait for the
		// next Patch or stats scrape, as they always have.)
		if e.h != ch.latest.Load() {
			s.retired.Add(ch.sweepLocked(time.Now().UnixNano()))
		}
	}
	ch.mu.Unlock()
}

// sweepLocked retires every generation that is not the latest and has
// no pins and no unexpired leases, and returns how many that was.
// Nothing outside the chain has to hear of it: no warm state is keyed
// by generation. Caller holds ch.mu.
func (ch *chain) sweepLocked(nowNS int64) uint64 {
	latest := ch.latest.Load()
	var retired uint64
	for gen, e := range ch.gens {
		// Compact expired leases first so they can't keep a gen alive.
		kept := e.leases[:0]
		for _, exp := range e.leases {
			if exp > nowNS {
				kept = append(kept, exp)
			}
		}
		e.leases = kept
		if e.h == latest {
			continue
		}
		if e.pins == 0 && len(e.leases) == 0 {
			delete(ch.gens, gen)
			retired++
		}
	}
	return retired
}

// MVCCStats aggregates the store's generation-chain accounting.
type MVCCStats struct {
	// LiveGenerations counts readable generations across all documents
	// (at least one per resident document).
	LiveGenerations int `json:"live_generations"`
	// PinnedGenerations counts non-latest generations kept alive by
	// leases (issued cursor tokens) or pins (queries that were already
	// running when a patch superseded their generation) — the
	// time-travel working set. Queries of the latest generation pin it
	// too, but the latest is never counted here.
	PinnedGenerations int `json:"pinned_generations"`
	// Patches counts successfully applied patches since process start.
	Patches uint64 `json:"patches"`
	// Retired counts generations garbage-collected since process start.
	Retired uint64 `json:"retired"`
}

// MVCC reports generation-chain statistics. It sweeps expired leases as
// a side effect, so periodic stats scraping doubles as the lease
// janitor — no dedicated background goroutine needed.
func (s *Store) MVCC() MVCCStats {
	st := MVCCStats{Patches: s.patches.Load()}
	now := time.Now().UnixNano()
	for _, ch := range s.chains() {
		ch.mu.Lock()
		s.retired.Add(ch.sweepLocked(now))
		latest := ch.latest.Load()
		st.LiveGenerations += len(ch.gens)
		for _, e := range ch.gens {
			if e.h != latest {
				st.PinnedGenerations++
			}
		}
		ch.mu.Unlock()
	}
	st.Retired = s.retired.Load()
	return st
}
