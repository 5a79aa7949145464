package store

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/index"
	"repro/internal/mmapx"
	"repro/internal/tree"
)

// XQO2 composition: the tree package owns the container and the
// document's sections, the index package owns its sections, and this
// file glues them into whole-file save/open operations. A file holds
// what a query reads and nothing more: its bytes are the resident
// document and index (MemBytes) plus a few hundred bytes of header,
// section table and padding.
//
// A mapped document's arrays alias read-only file pages, which the
// kernel pages like those of any file: a clean page it reclaims under
// pressure refaults from the file on the next read. Patching a mapped
// document is safe — Document.Apply and index.Apply copy everything
// into fresh heap memory, so patched generations share nothing with the
// mapping.

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
// the document itself; callers only need it for its size or to Close
// a document nothing else reads. The second result is always nil: it
// exists only for cmd/xpqbench's format probe, which reads five.
func OpenXQO2(path string) (*tree.Document, *tree.Succinct, *index.Index, *mmapx.Mapping, error) {
	d, ix, m, err := openXQO2(path)
	return d, nil, ix, m, err
}

func openXQO2(path string) (*tree.Document, *index.Index, *mmapx.Mapping, error) {
	m, err := mmapx.Open(path)
	if err != nil {
		return nil, nil, nil, err
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
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, ix, m, nil
}

// OpenXQO2Verified is OpenXQO2 plus the element-wise structural
// validation pass (up, size and wide proven to describe one tree whose
// text nodes are leaves, the text offsets their texts, the index the
// exact inverse of the labels). Use it for files
// that did not originate from this process: the default open only
// verifies checksums, which catch corruption but not a crafted file
// whose values would panic a later query or send it round a cycle.
func OpenXQO2Verified(path string) (*tree.Document, *index.Index, *mmapx.Mapping, error) {
	d, ix, m, err := openXQO2(path)
	if err != nil {
		return nil, nil, nil, err
	}
	if err = d.VerifyStructure(); err == nil {
		err = ix.VerifyStructure()
	}
	if err != nil {
		m.Close()
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, ix, m, nil
}

// SetVerifyResident makes every subsequent LoadMapped run the full
// structural verification pass (OpenXQO2Verified) instead of trusting
// checksummed content. Off by default: resident files are a cache
// artifact this process wrote itself.
func (s *Store) SetVerifyResident(v bool) { s.verifyResident.Store(v) }

// LoadMapped opens an XQO2 file and registers it under id. The open is
// zero-copy — no parse, no index build — so registration cost is the
// section-table walk plus checksum verification, and the kernel pages
// the document's working set like any other file mapping. The file is
// mapped only once the id is reserved.
func (s *Store) LoadMapped(id, path string) (*Handle, error) {
	return s.loadHandle(id, func() (*Handle, error) {
		open := openXQO2
		if s.verifyResident.Load() {
			open = OpenXQO2Verified
		}
		d, ix, m, err := open(path)
		if err != nil {
			return nil, fmt.Errorf("store: opening %q: %w", id, err)
		}
		h := newHandle(id, d, ix, SourceMapped)
		h.Stats.MappedBytes = int64(m.Len())
		return h, nil
	})
}

// MappedStats reports the store's mapped documents.
type MappedStats struct {
	// MappedBytes sums the XQO2 files behind the generations the store
	// holds.
	MappedBytes int64 `json:"mapped_bytes"`
	// MapFaults is always 0: the store no longer releases mappings, so
	// nothing re-heats one. It stays because cmd/xpqbench reads it.
	MapFaults uint64 `json:"map_faults"`
}

// Mapped sums MappedBytes over every generation the store holds.
func (s *Store) Mapped() MappedStats {
	var st MappedStats
	for _, ch := range s.chains() {
		ch.mu.Lock()
		for _, e := range ch.gens {
			st.MappedBytes += e.h.Stats.MappedBytes
		}
		ch.mu.Unlock()
	}
	return st
}
