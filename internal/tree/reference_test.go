package tree

import (
	"math/rand"
	"reflect"
	"testing"
)

// refBuilder is the Builder this package had before Link: it grows the
// seven arrays by append and maintains the links as the events arrive.
// Kept, for tests only, as the independent definition of what an event
// stream means; TestLinkMatchesReferenceBuilder holds Link to it.
type refBuilder struct {
	doc   *Document
	stack []NodeID
	prev  []NodeID // last closed child per stack level, for sibling links
}

func newRefBuilder() *refBuilder {
	b := &refBuilder{doc: &Document{names: NewLabelTable()}}
	b.open(LabelDoc)
	return b
}

func (b *refBuilder) open(l LabelID) NodeID {
	d := b.doc
	v := NodeID(len(d.labels))
	d.labels = append(d.labels, l)
	d.parent = append(d.parent, Nil)
	d.firstChild = append(d.firstChild, Nil)
	d.nextSibling = append(d.nextSibling, Nil)
	d.lastDesc = append(d.lastDesc, v)
	d.depth = append(d.depth, int32(len(b.stack)))
	d.textOff = append(d.textOff, uint32(len(d.textBlob)))
	if len(b.stack) > 0 {
		p := b.stack[len(b.stack)-1]
		d.parent[v] = p
		if d.firstChild[p] == Nil {
			d.firstChild[p] = v
		} else {
			d.nextSibling[b.prev[len(b.stack)-1]] = v
		}
	}
	b.stack = append(b.stack, v)
	b.prev = append(b.prev, Nil)
	return v
}

func (b *refBuilder) text(content string) NodeID {
	v := b.open(LabelText)
	b.doc.textBlob = append(b.doc.textBlob, content...)
	b.close()
	return v
}

func (b *refBuilder) close() {
	v := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	b.prev = b.prev[:len(b.prev)-1]
	b.doc.lastDesc[v] = NodeID(len(b.doc.labels) - 1)
	if len(b.prev) > 0 {
		b.prev[len(b.prev)-1] = v
	}
}

func (b *refBuilder) finish() *Document {
	b.close()
	return b.doc
}

// TestLinkMatchesReferenceBuilder drives random open/text/close
// sequences into the Builder (events, then Link) and into the reference
// builder, and compares every array, the blob and the label table.
func TestLinkMatchesReferenceBuilder(t *testing.T) {
	labels := []string{"a", "b", "c", "@x", "long-name.with:chars"}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b, ref := NewBuilder(), newRefBuilder()
		depth := 0
		for steps := rng.Intn(300); steps > 0; steps-- {
			switch r := rng.Intn(10); {
			case r < 4:
				name := labels[rng.Intn(len(labels))]
				if got, want := b.Open(name), ref.open(ref.doc.names.Intern(name)); got != want {
					t.Fatalf("seed %d: Open returned node %d, want %d", seed, got, want)
				}
				depth++
			case r < 6:
				content := string(make([]byte, rng.Intn(4))) + "t"
				if got, want := b.Text(content), ref.text(content); got != want {
					t.Fatalf("seed %d: Text returned node %d, want %d", seed, got, want)
				}
			case depth > 0:
				b.Close()
				ref.close()
				depth--
			}
		}
		if b.Depth() != depth+1 {
			t.Fatalf("seed %d: Depth() = %d, want %d", seed, b.Depth(), depth+1)
		}
		for ; depth > 0; depth-- {
			b.Close()
			ref.close()
		}
		got, want := b.MustFinish(), ref.finish()
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"labels", got.labels, want.labels}, {"parent", got.parent, want.parent},
			{"firstChild", got.firstChild, want.firstChild}, {"nextSibling", got.nextSibling, want.nextSibling},
			{"lastDesc", got.lastDesc, want.lastDesc}, {"depth", got.depth, want.depth},
			{"textOff", got.textOff, want.textOff}, {"textBlob", string(got.textBlob), string(want.textBlob)},
			{"names", got.names.names, want.names.names},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Fatalf("seed %d: %s\n got %v\nwant %v", seed, f.name, f.got, f.want)
			}
		}
		counts := make([]int32, want.names.Size())
		for _, l := range want.labels {
			counts[l]++
		}
		if !reflect.DeepEqual(got.LabelCounts(), counts) || !reflect.DeepEqual(want.LabelCounts(), counts) {
			t.Fatalf("seed %d: LabelCounts = %v (built) / %v (counted), want %v", seed, got.LabelCounts(), want.LabelCounts(), counts)
		}
	}
}
