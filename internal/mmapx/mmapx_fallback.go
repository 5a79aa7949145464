//go:build !unix

package mmapx

import "os"

// Open falls back to reading the whole file into the heap on platforms
// without mmap. The Mapping API keeps working.
func Open(path string) (*Mapping, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Mapping{data: data}, nil
}

// Close drops the heap-backed bytes; the garbage collector reclaims them.
func (m *Mapping) Close() {
	m.data = nil
}
