// Package mmapx is a thin read-only memory-mapping layer for the XQO2
// resident document format. A Mapping hands out a []byte that aliases the
// file's pages; the tree/index layers reinterpret slices of it in place,
// so opening a corpus costs page-table setup instead of parsing.
//
// Lifetime rule (see DESIGN.md "Resident format & paging"): the mapping
// is unmapped by a finalizer once nothing references the Mapping
// anymore. Every structure aliasing the data keeps a pointer to its
// Mapping, so slices never outlive their pages. Paging is the kernel's:
// the mapping is read-only and shared, so its pages are clean page-cache
// pages, reclaimed under memory pressure and refaulted from the file on
// the next read.
//
// On platforms without mmap the package falls back to reading the file
// into the heap; all APIs keep working.
package mmapx

// Mapping is a read-only view of a file's contents.
type Mapping struct {
	data []byte
}

// Data returns the mapped bytes. The slice aliases the mapping; callers
// must not write to it and must keep the Mapping reachable for as long as
// any derived slice is in use.
func (m *Mapping) Data() []byte { return m.data }

// Len reports the mapping's size in bytes.
func (m *Mapping) Len() int { return len(m.data) }
