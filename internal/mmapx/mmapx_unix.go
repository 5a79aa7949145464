//go:build unix

package mmapx

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
)

// Open maps path read-only. The returned Mapping is unmapped by a
// finalizer when it becomes unreachable; callers that alias its data must
// keep the Mapping reachable (tree.Document does, via its mapping field).
func Open(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return &Mapping{}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmapx: %s: file too large to map (%d bytes)", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, mapFlags)
	if err != nil {
		return nil, fmt.Errorf("mmapx: mmap %s: %w", path, err)
	}
	m := &Mapping{data: data}
	runtime.SetFinalizer(m, (*Mapping).unmap)
	return m, nil
}

func (m *Mapping) unmap() {
	if m.data != nil {
		_ = syscall.Munmap(m.data)
		m.data = nil
	}
}

// Close unmaps immediately instead of waiting for the finalizer. It is
// only safe when no slice derived from Data is still in use — every
// aliased structure must already be dead. Callers that cannot prove that
// (the store, with MVCC readers possibly holding old generations) leave
// the unmap to the finalizer.
func (m *Mapping) Close() {
	runtime.SetFinalizer(m, nil)
	m.unmap()
}
