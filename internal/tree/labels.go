package tree

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"
)

// LabelTable interns element names to dense integer ids.
//
// A document's table is registered: the process keeps one table per
// list of names (registered), and a document made by Join or patched
// by Apply lists its names canonically — "#doc", "#text", then the
// others in byte order (sortedTable) — so every document with the same
// names shares one table, and with it the ID its compiled automata are
// cached under. A registered table is frozen: it owns a copy of its
// names, and interning a name it lacks panics. The working table of a
// Builder or of a parser's chunk, and one made by NewLabelTable, are
// not registered and intern freely.
type LabelTable struct {
	id     uint64
	names  []string
	ids    map[string]LabelID
	frozen bool
}

// labelTables hands out process-unique table ids.
var labelTables atomic.Uint64

// NewLabelTable returns a table seeded with the reserved labels.
func NewLabelTable() *LabelTable {
	lt := &LabelTable{id: labelTables.Add(1), ids: make(map[string]LabelID)}
	lt.Intern("#doc")
	lt.Intern("#text")
	return lt
}

// ID is the table's process-unique identity. A compiled automaton is a
// function of the query and the table, never of the tree, so it is
// cached under this, and serves every document that shares the table.
func (lt *LabelTable) ID() uint64 { return lt.id }

// Intern returns the id for name, creating it if needed. A registered
// table is shared by documents that hold none of a name it lacks, and
// panics instead.
func (lt *LabelTable) Intern(name string) LabelID {
	if id, ok := lt.ids[name]; ok {
		return id
	}
	if lt.frozen {
		panic(fmt.Sprintf("tree: interning %q into a registered label table, which documents share", name))
	}
	id := LabelID(len(lt.names))
	lt.names = append(lt.names, name)
	lt.ids[name] = id
	return id
}

// InternBytes is Intern for a name still in a byte buffer: it allocates
// the string only when the name is new to the table.
func (lt *LabelTable) InternBytes(name []byte) LabelID {
	if id, ok := lt.ids[string(name)]; ok {
		return id
	}
	return lt.Intern(string(name))
}

// Lookup returns the id for name without interning; ok is false if the
// label does not occur in the table.
func (lt *LabelTable) Lookup(name string) (LabelID, bool) {
	id, ok := lt.ids[name]
	return id, ok
}

// Name returns the string for a label id.
func (lt *LabelTable) Name(id LabelID) string { return lt.names[id] }

// Size reports the number of distinct labels (the alphabet size |Σ|).
func (lt *LabelTable) Size() int { return len(lt.names) }

// Names returns a copy of all label names in id order.
func (lt *LabelTable) Names() []string {
	out := make([]string, len(lt.names))
	copy(out, lt.names)
	return out
}

// MemBytes reports the bytes the table holds: a string header and the
// bytes of each name. A document does not count its table (see
// Document.MemBytes): the documents sharing one hold it once.
func (lt *LabelTable) MemBytes() int64 {
	b := int64(len(lt.names)) * int64(unsafe.Sizeof(""))
	for _, name := range lt.names {
		b += int64(len(name))
	}
	return b
}

// tables is the registry: for each registered table that is still
// reachable, a weak pointer to it under its key. When a table is
// collected its cleanup drops the entry, unless a table made since has
// taken the key.
var tables = struct {
	sync.Mutex
	m map[string]weak.Pointer[LabelTable]
}{m: make(map[string]weak.Pointer[LabelTable])}

// appendKey appends one name to a registry key: its length, then its
// bytes. Two lists of names have one key only if they are equal name
// for name: ["ab", "c"] and ["a", "bc"] do not.
func appendKey[S string | []byte](key []byte, name S) []byte {
	return append(binary.AppendUvarint(key, uint64(len(name))), name...)
}

// registered returns the registered table whose names are the count
// names key lists, making it if no live table has that key. A new
// table's names are substrings of its own copy of the key, which is
// also the registry's.
func registered(key []byte, count int) *LabelTable {
	tables.Lock()
	defer tables.Unlock()
	if lt := tables.m[string(key)].Value(); lt != nil {
		return lt
	}
	k := string(key)
	lt := &LabelTable{id: labelTables.Add(1), names: make([]string, 0, count), ids: make(map[string]LabelID, count), frozen: true}
	for at := 0; at < len(key); {
		n, w := binary.Uvarint(key[at:])
		at += w
		lt.ids[k[at:at+int(n)]] = LabelID(len(lt.names))
		lt.names = append(lt.names, k[at:at+int(n)])
		at += int(n)
	}
	wp := weak.Make(lt)
	tables.m[k] = wp
	runtime.AddCleanup(lt, forgetTable, registryEntry{k, wp})
	return lt
}

// registryEntry is what a table's cleanup needs to find its entry.
type registryEntry struct {
	key string
	wp  weak.Pointer[LabelTable]
}

// forgetTable drops a collected table's entry, if it is still its own.
func forgetTable(e registryEntry) {
	tables.Lock()
	if tables.m[e.key] == e.wp {
		delete(tables.m, e.key)
	}
	tables.Unlock()
}

// sortedTable returns the registered table of a document whose names,
// apart from the reserved ones, are rest, in any order and repeated at
// will: "#doc", "#text", then rest in byte order. It sorts rest in
// place, and refuses a table past MaxLabels.
func sortedTable(rest []string) (*LabelTable, error) {
	slices.Sort(rest)
	rest = slices.Compact(rest)
	if err := checkLabelCount(ReservedLabels + len(rest)); err != nil {
		return nil, err
	}
	size := 16
	for _, name := range rest {
		size += len(name) + 1
	}
	key := appendKey(appendKey(make([]byte, 0, size), "#doc"), "#text")
	for _, name := range rest {
		key = appendKey(key, name)
	}
	return registered(key, ReservedLabels+len(rest)), nil
}
