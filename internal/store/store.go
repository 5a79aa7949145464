// Package store is the document registry of the multi-document query
// service: a concurrency-safe map from document id to a *generation
// chain* — the MVCC history of one logical document. Documents arrive
// from three sources — XML parsing, XMark generation, or an mmap'd XQO2
// file (xqo2.go, which carries its index) — and the store builds the
// index.Index exactly once per generation: at load time for generation
// one, and incrementally (array splice + index splice, see Patch in
// mvcc.go) for every patched generation after it. A load reserves its
// id before it builds, so a second load of the id answers ErrExists
// without building anything. Each generation is immutable; readers pin
// the one they started on and are never invalidated by later patches.
package store

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/mmapx"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlparse"
)

// ErrExists is wrapped by every load when the document id is resident
// or reserved by a load still building; callers branch on it with
// errors.Is (the HTTP layer maps it to 409).
var ErrExists = errors.New("already loaded")

// ErrNotFound is wrapped by generation-chain operations (Patch,
// Acquire) against ids not resident in the store; the HTTP
// layer maps it to 404.
var ErrNotFound = errors.New("no such document")

// Source identifies how a document entered the store.
type Source string

// Document sources.
const (
	SourceXML    Source = "xml"
	SourceXMark  Source = "xmark"
	SourceDirect Source = "direct"
	// SourcePatch marks generations derived by an incremental subtree
	// patch rather than a from-source load.
	SourcePatch Source = "patch"
	// SourceMapped marks documents opened zero-copy from an mmap'd XQO2
	// file (see xqo2.go); their arrays alias file pages, not the heap.
	SourceMapped Source = "mapped"
)

// Stats describes one resident document generation.
type Stats struct {
	ID string `json:"id"`
	// Gen is the generation this snapshot describes. Generations are
	// per-document, strictly increasing, and entropy-seeded per load so
	// a generation-pinned token can never alias a different incarnation
	// of the same id (including across daemon restarts).
	Gen Gen `json:"gen"`
	// Nodes counts all tree nodes including the synthetic root.
	Nodes int `json:"nodes"`
	// Labels is the alphabet size |Σ| (distinct element names plus the
	// two reserved labels).
	Labels int `json:"labels"`
	// MemBytes estimates the resident size of the document plus its
	// index (flat arrays, occurrence rows, text). Its label table is not
	// in it: documents with the same names share one, and DocBytes
	// counts it once. For mapped documents this working set is
	// file-backed, not heap.
	MemBytes int64 `json:"mem_bytes"`
	// MappedBytes is the size of the XQO2 mapping backing this document
	// (zero for heap-backed documents and patched generations, which
	// copy-on-write into the heap).
	MappedBytes int64     `json:"mapped_bytes,omitempty"`
	Source      Source    `json:"source"`
	LoadedAt    time.Time `json:"loaded_at"`
	// LiveGens counts this document's generations still readable
	// (latest plus everything pinned by cursors or leases); filled by
	// List, not meaningful on a Handle's own Stats.
	LiveGens int `json:"live_gens,omitempty"`
	// names is the generation's label table, for DocBytes.
	names *tree.LabelTable
}

// DocBytes is what the documents listed — as List returns them — hold
// between them: each one's MemBytes, and every label table among them
// once, however many of them share it.
func DocBytes(docs []Stats) int64 {
	var b int64
	seen := make(map[*tree.LabelTable]bool)
	for _, st := range docs {
		b += st.MemBytes
		if !seen[st.names] {
			seen[st.names] = true
			b += st.names.MemBytes()
		}
	}
	return b
}

// Handle is an immutable view of one generation of one resident
// document. The document and index never change after the generation is
// built, so a Handle stays valid after the generation is retired or the
// entry evicted from the store.
type Handle struct {
	ID string
	// Gen is this generation's id within the document's chain.
	Gen   Gen
	Doc   *tree.Document
	Index *index.Index
	Stats Stats
}

// Succinct returns tree.NewSuccinct's empty view. It exists only for
// cmd/xpqbench, which calls it.
func (h *Handle) Succinct() *tree.Succinct { return tree.NewSuccinct(h.Doc) }

// Store is a concurrency-safe registry of loaded documents.
type Store struct {
	mu   sync.RWMutex
	docs map[string]*chain
	// loading holds the ids whose first generation is being built: an
	// id is reserved here before its build runs and leaves when the
	// build publishes or fails, so no two builds of one id ever run.
	loading map[string]struct{}
	patches atomic.Uint64
	retired atomic.Uint64
	// verifyResident selects OpenXQO2Verified for LoadMapped (full
	// element-wise validation for files from outside this process).
	verifyResident atomic.Bool
}

// New returns an empty store.
func New() *Store {
	return &Store{
		docs:    make(map[string]*chain),
		loading: make(map[string]struct{}),
	}
}

// load is loadHandle for builders that produce a document: the index is
// built over it here.
func (s *Store) load(id string, src Source, build func() (*tree.Document, error)) (*Handle, error) {
	return s.loadHandle(id, func() (*Handle, error) {
		d, err := build()
		if err != nil {
			return nil, err
		}
		return newHandle(id, d, index.New(d), src), nil
	})
}

// loadHandle is the one registration path: reserve or duplicate. The id
// is reserved under the lock before build runs, so a load of an id that
// is resident or already being built answers ErrExists at once, without
// building. build runs outside the lock (loads of distinct ids
// overlap); one deferred critical section then publishes its handle or
// drops the reservation, also when build panics, so a failed build
// leaves the id loadable. An Evict never sees a reserved id: it removes
// resident documents only, and the build publishes after it.
func (s *Store) loadHandle(id string, build func() (*Handle, error)) (h *Handle, err error) {
	if id == "" {
		return nil, fmt.Errorf("store: empty document id")
	}
	// NUL is the field delimiter of the service's continuation tokens,
	// which carry the id; an id containing it could not be resumed.
	if strings.ContainsRune(id, 0) {
		return nil, fmt.Errorf("store: document id must not contain NUL")
	}
	s.mu.Lock()
	_, resident := s.docs[id]
	_, building := s.loading[id]
	if resident || building {
		s.mu.Unlock()
		return nil, fmt.Errorf("store: document %q %w", id, ErrExists)
	}
	s.loading[id] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.loading, id)
		// h is nil when build failed or panicked.
		if h != nil {
			s.docs[id] = newChain(h)
		}
		s.mu.Unlock()
	}()
	return build()
}

// newHandle constructs the immutable handle of one generation over its
// document and index, its Stats read from them. The caller adds what
// only it knows: a mapped document's MappedBytes, a patch's Gen (a
// load's generation is stamped at publish, by newChain).
func newHandle(id string, d *tree.Document, ix *index.Index, src Source) *Handle {
	h := &Handle{ID: id, Doc: d, Index: ix}
	h.Stats = Stats{
		ID:       id,
		Nodes:    d.NumNodes(),
		Labels:   d.Names().Size(),
		MemBytes: h.memBytes(),
		Source:   src,
		names:    d.Names(),
		LoadedAt: time.Now(),
	}
	return h
}

// Add registers an already-built document under id, building its index.
// It fails if the id is taken (evict first to replace).
func (s *Store) Add(id string, d *tree.Document, src Source) (*Handle, error) {
	return s.load(id, src, func() (*tree.Document, error) { return d, nil })
}

// LoadXML parses XML bytes and registers the document. A load of an
// id that is resident or being loaded answers ErrExists without
// parsing.
func (s *Store) LoadXML(id string, src []byte) (*Handle, error) {
	return s.load(id, SourceXML, func() (*tree.Document, error) { return parseXML(id, src) })
}

func parseXML(id string, src []byte) (*tree.Document, error) {
	d, err := xmlparse.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("store: parsing %q: %w", id, err)
	}
	return d, nil
}

// LoadXMLFile parses an XML file and registers the document. The id is
// reserved before the file is opened, so a taken id answers ErrExists
// whatever the path holds. The file is parsed out of a read-only
// mapping — the page cache's own pages, no copy into fresh heap memory
// — which is unmapped before returning: the document copies its names
// and text and keeps nothing of the source.
func (s *Store) LoadXMLFile(id, path string) (*Handle, error) {
	return s.load(id, SourceXML, func() (*tree.Document, error) {
		m, err := mmapx.Open(path)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		defer m.Close()
		return parseXML(id, m.Data())
	})
}

// GenerateXMark generates a deterministic XMark document at the given
// scale and registers it.
func (s *Store) GenerateXMark(id string, scale float64, seed int64) (*Handle, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("store: xmark scale must be > 0, got %v", scale)
	}
	return s.load(id, SourceXMark, func() (*tree.Document, error) {
		return xmark.Generate(xmark.Config{Scale: scale, Seed: seed}), nil
	})
}

// chains snapshots the generation chains, for walks that must not hold
// the store lock.
func (s *Store) chains() []*chain {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*chain, 0, len(s.docs))
	for _, ch := range s.docs {
		out = append(out, ch)
	}
	return out
}

// chainFor returns the generation chain for id, or nil.
func (s *Store) chainFor(id string) *chain {
	s.mu.RLock()
	ch := s.docs[id]
	s.mu.RUnlock()
	return ch
}

// Get returns the latest-generation handle for id.
func (s *Store) Get(id string) (*Handle, bool) {
	ch := s.chainFor(id)
	if ch == nil {
		return nil, false
	}
	h := ch.latest.Load()
	return h, h != nil
}

// Evict removes id from the store, retiring every generation of its
// chain (pins and leases included — eviction is administrative and
// overrides them: later resumes answer 410). Handles already obtained
// stay usable; the memory is reclaimed once they are dropped (a
// mapping is unmapped by its finalizer once the last one drops). A
// load still building id is not resident and is left alone: it
// publishes when its build ends.
func (s *Store) Evict(id string) bool {
	s.mu.Lock()
	ch, ok := s.docs[id]
	delete(s.docs, id)
	s.mu.Unlock()
	if !ok {
		return false
	}
	ch.mu.Lock()
	ch.latest.Store(nil)
	s.retired.Add(uint64(len(ch.gens)))
	clear(ch.gens)
	ch.mu.Unlock()
	return true
}

// List returns a snapshot of latest-generation stats sorted by id, each
// annotated with its chain's live generation count.
func (s *Store) List() []Stats {
	chains := s.chains()
	out := make([]Stats, 0, len(chains))
	for _, ch := range chains {
		h := ch.latest.Load()
		if h == nil {
			continue
		}
		st := h.Stats
		st.Gen = h.Gen
		ch.mu.Lock()
		st.LiveGens = len(ch.gens)
		ch.mu.Unlock()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len reports the number of resident documents.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// memBytes is the resident size of a generation: what its document and
// its index hold, summed from their live slices (for a mapped document,
// the sections they alias).
func (h *Handle) memBytes() int64 { return h.Doc.MemBytes() + h.Index.MemBytes() }
