package store

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/mmapx"
	"repro/internal/tree"
)

// XQO2 composition: the tree package owns the container and the
// document's sections, the index package owns its sections, and this
// file glues them into whole-file save/open operations plus the store's
// resident-budget paging. A file holds what a query reads and nothing
// more: its bytes are the resident document and index (MemBytes) plus a
// few hundred bytes of header, section table and padding.
//
// A mapped document's arrays alias read-only file pages. Patching it is
// safe — Document.Apply and index.Apply copy everything into fresh heap
// memory, so patched generations share nothing with the mapping — and
// releasing it is advisory: madvise tells the OS the pages are cold, the
// mapping stays valid, and a straggling reader just refaults.

// WriteXQO2 serializes d — with a freshly built jumping index — into the
// XQO2 resident container.
func WriteXQO2(w io.Writer, d *tree.Document) (int64, error) {
	lw := tree.NewLayoutWriter()
	tree.AddDocumentSections(lw, d, nil)
	index.AddSections(lw, index.New(d))
	return lw.WriteTo(w)
}

// SaveXQO2File writes d to path in the XQO2 format.
func SaveXQO2File(path string, d *tree.Document) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := WriteXQO2(bw, d); err != nil {
		f.Close()
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	return f.Close()
}

// OpenXQO2 maps path and reassembles the document and its jumping index
// zero-copy from the mapping. The returned mapping is also retained by
// the document itself; callers only need it for paging control and
// accounting. The second result is always nil: the format stores no
// balanced-parentheses view since version 8 (Handle.Succinct builds one
// on demand), and the result stays only for cmd/xpqbench's format probe,
// which reads five.
func OpenXQO2(path string) (*tree.Document, *tree.Succinct, *index.Index, *mmapx.Mapping, error) {
	m, err := mmapx.Open(path)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var d *tree.Document
	var ix *index.Index
	l, err := tree.OpenLayout(m.Data(), m)
	if err == nil {
		d, err = tree.DocumentFromLayout(l)
	}
	if err == nil {
		ix, err = index.FromLayout(l, d)
	}
	if err != nil {
		m.Close() // nothing built over the mapping outlives a failed open
		return nil, nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil, ix, m, nil
}

// OpenXQO2Verified is OpenXQO2 plus the element-wise structural
// validation pass (up, size and wide proven to describe one tree, the
// text sequences the text nodes and their texts, the index the exact
// inverse of the labels). Use it for files
// that did not originate from this process: the default open only
// verifies checksums, which catch corruption but not a crafted file
// whose values would panic a later query or send it round a cycle. Its
// second result is always nil, as OpenXQO2's is.
func OpenXQO2Verified(path string) (*tree.Document, *tree.Succinct, *index.Index, *mmapx.Mapping, error) {
	d, _, ix, m, err := OpenXQO2(path)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if err = d.VerifyStructure(); err == nil {
		err = ix.VerifyStructure()
	}
	if err != nil {
		m.Close()
		return nil, nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil, ix, m, nil
}

// SetVerifyResident makes every subsequent LoadMapped run the full
// structural verification pass (OpenXQO2Verified) instead of trusting
// checksummed content. Off by default: resident files are a cache
// artifact this process wrote itself.
func (s *Store) SetVerifyResident(v bool) { s.verifyResident.Store(v) }

// LoadMapped opens an XQO2 file and registers it under id: OpenMapped,
// then PublishMapped. The open is zero-copy — no parse, no index build —
// so registration cost is the section-table walk plus checksum
// verification, and the document's working set is paged in on demand by
// the OS.
func (s *Store) LoadMapped(id, path string) (*Handle, error) {
	h, err := s.OpenMapped(id, path)
	if err != nil {
		return nil, err
	}
	return s.PublishMapped(h)
}

// OpenMapped is LoadMapped's open half. It changes nothing in the store,
// so any number can run at once; the handle is not resident until
// PublishMapped registers it, and one never published must be Discarded.
func (s *Store) OpenMapped(id, path string) (*Handle, error) {
	open := OpenXQO2
	if s.verifyResident.Load() {
		open = OpenXQO2Verified
	}
	d, _, ix, m, err := open(path)
	if err != nil {
		return nil, fmt.Errorf("store: opening %q: %w", id, err)
	}
	h := &Handle{ID: id, Doc: d, Index: ix, mapping: m}
	h.Stats = Stats{
		ID:          id,
		Nodes:       d.NumNodes(),
		Labels:      d.Names().Size(),
		MemBytes:    h.memBytes(),
		MappedBytes: int64(m.Len()),
		Source:      SourceMapped,
		LoadedAt:    time.Now(),
	}
	return h, nil
}

// PublishMapped is LoadMapped's publish half: the single-flight slot, the
// generation chain, the mapping's accounting and the resident budget, with
// this mapping the most recently used — publishing order is LRU order,
// whatever order the opens ran in. A handle it cannot publish is discarded.
func (s *Store) PublishMapped(h *Handle) (*Handle, error) {
	if _, err := s.loadHandle(h.ID, func() (*Handle, error) { return h, nil }); err != nil {
		h.Discard()
		return nil, err
	}
	s.enforceBudget(h.ID)
	return h, nil
}

// Discard unmaps an unpublished handle from OpenMapped now, not at the
// mapping's finalizer. Nothing else may hold the handle or its document.
func (h *Handle) Discard() { h.mapping.Close() }

// --- Resident-budget paging ---

// mappedEntry is the store's accounting record for one mapped document.
// charged means the mapping's pages are (presumed) OS-resident — set on
// load and on every access, cleared when the budget enforcer releases
// the mapping. All fields but m are monotonic counters or atomics so the
// Get fast path never takes a lock for them.
type mappedEntry struct {
	m        *mmapx.Mapping
	bytes    int64
	lastUsed int64 // atomic: the store's use clock at the last access
	charged  int32 // atomic: 1 while counted against the budget
}

// SetResidentBudget caps the total bytes of mapped documents counted as
// hot; 0 or negative means unlimited. When the hot set exceeds the
// budget, the least-recently-used mappings are released (madvise) until
// it fits — documents stay queryable, their pages just refault on next
// use.
func (s *Store) SetResidentBudget(b int64) {
	s.mapBudget.Store(b)
	s.enforceBudget("")
}

// registerMappedLocked adds a freshly loaded mapping to the accounting.
// Caller holds s.mu.
func (s *Store) registerMappedLocked(id string, m *mmapx.Mapping) {
	e := &mappedEntry{m: m, bytes: int64(m.Len()), lastUsed: s.useClock.Add(1), charged: 1}
	s.mapped[id] = e
	s.mappedCount.Add(1)
	s.chargedBytes.Add(e.bytes)
}

// dropMappedLocked removes id's mapping from the accounting (evict).
// Caller holds s.mu; the caller releases the mapping outside the lock.
func (s *Store) dropMappedLocked(id string, e *mappedEntry) {
	delete(s.mapped, id)
	s.mappedCount.Add(-1)
	if atomic.SwapInt32(&e.charged, 0) == 1 {
		s.chargedBytes.Add(-e.bytes)
	}
}

// touchMapped marks id's mapping as hot. An access to a released
// mapping re-charges it (and counts as a map fault — its pages refault
// from the file) and may push the hot set over budget, in which case a
// colder mapping is released to make room. No-ops in constant time when
// the store has no mapped documents.
func (s *Store) touchMapped(id string) {
	if s.mappedCount.Load() == 0 {
		return
	}
	s.mu.RLock()
	e := s.mapped[id]
	s.mu.RUnlock()
	if e == nil {
		return
	}
	atomic.StoreInt64(&e.lastUsed, s.useClock.Add(1))
	if atomic.SwapInt32(&e.charged, 1) == 0 {
		s.mapFaults.Add(1)
		s.chargedBytes.Add(e.bytes)
		s.enforceBudget(id)
	}
}

// enforceBudget releases least-recently-used charged mappings until the
// hot set fits the budget. keep (the id just touched) is exempt — it is
// the hottest by definition — unless it alone exceeds the budget, in
// which case nothing helps and it stays charged. Each release is one
// pass for the coldest charged mapping, not a sort of them all: a
// publish or a re-heat over budget releases one like-sized mapping.
func (s *Store) enforceBudget(keep string) {
	budget := s.mapBudget.Load()
	for budget > 0 && s.chargedBytes.Load() > budget {
		var cold *mappedEntry
		var coldUsed int64
		s.mu.RLock()
		for id, e := range s.mapped {
			if id == keep || atomic.LoadInt32(&e.charged) == 0 {
				continue
			}
			if used := atomic.LoadInt64(&e.lastUsed); cold == nil || used < coldUsed {
				cold, coldUsed = e, used
			}
		}
		s.mu.RUnlock()
		if cold == nil {
			return
		}
		if atomic.SwapInt32(&cold.charged, 0) == 1 {
			s.chargedBytes.Add(-cold.bytes)
			_ = cold.m.Release()
		}
	}
}

// MappedStats reports the store's mapped-document accounting: total
// mapped bytes, the charged (presumed-resident) subset, and the number
// of map faults (accesses that re-heated a released mapping).
type MappedStats struct {
	MappedBytes  int64  `json:"mapped_bytes"`
	ChargedBytes int64  `json:"charged_bytes"`
	MapFaults    uint64 `json:"map_faults"`
}

// Mapped returns the store's mapped-document accounting snapshot.
func (s *Store) Mapped() MappedStats {
	var st MappedStats
	s.mu.RLock()
	for _, e := range s.mapped {
		st.MappedBytes += e.bytes
	}
	s.mu.RUnlock()
	st.ChargedBytes = s.chargedBytes.Load()
	st.MapFaults = s.mapFaults.Load()
	return st
}
