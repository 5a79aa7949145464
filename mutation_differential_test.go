package repro_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlparse"
)

// The mutation differential: a random sequence of subtree patches is
// driven through the full service (PATCH semantics, incremental index
// maintenance, MVCC generation chain), pinning every generation with a
// live cursor lease. After the whole sequence has been applied, each
// generation is replayed through the fifteen paper queries under every
// strategy and all three delivery modes — materialized Eval, paged
// cursor hops, NDJSON stream — and every answer must match an oracle
// engine built by re-parsing that generation's XML from scratch. This
// is the end-to-end guarantee the incremental path owes: a patched
// document is indistinguishable from a freshly loaded one, at every
// generation at once.

// mutationFragments graft XMark vocabulary so paper-query answers
// actually move: keywords, emphs, listitems, mailbox chains.
var mutationFragments = []string{
	"<listitem><keyword/></listitem>",
	"<keyword><emph/></keyword>",
	"<parlist><listitem><keyword/><emph/></listitem></parlist>",
	"<item><mailbox><mail><date/></mail></mailbox></item>",
	"<emph/>",
}

// The edge the XMark fragments never reach: a patch that interns labels.
// freshLabelFragment brings an element and an attribute no XMark
// document has, so the generation it creates cannot share its parent's
// label table — and every automaton compiled for the parent is stale
// for it: a chain naming zzz was proven empty, and a `*` guard compiled
// before @q existed does not exclude it. freshLabelQueries name the new
// labels or depend on the whole alphabet.
const freshLabelFragment = `<zzz q="1"><keyword/></zzz>`

var freshLabelQueries = []xmark.Query{
	{ID: "F01", XPath: "//zzz"},
	{ID: "F02", XPath: "//zzz//keyword"},
	{ID: "F03", XPath: "//*[@q]"},
	{ID: "F04", XPath: "//*"},
	{ID: "F05", XPath: "/site//node()"},
}

// expectEmptyChain asserts that Auto answers the two zzz chains at gen
// (zero: latest) from the label table alone: the label is absent there,
// so the hybrid run visits nothing.
func expectEmptyChain(t *testing.T, svc *service.Service, gen store.Gen) {
	t.Helper()
	for _, q := range freshLabelQueries[:2] {
		resp := svc.Eval(service.Request{Doc: "xm", Query: q.XPath, AsOf: gen})
		if resp.Err != "" || resp.Count != 0 || resp.Strategy != core.Hybrid.String() || resp.Visited != 0 {
			t.Fatalf("%s at gen %d, where zzz does not occur: strategy=%q count=%d visited=%d err=%q, want hybrid answering empty with no work",
				q.XPath, gen, resp.Strategy, resp.Count, resp.Visited, resp.Err)
		}
	}
}

var mutationStrategies = []string{
	"auto", "naive", "jumping", "memoized", "optimized",
	"hybrid", "topdown-det", "stepwise",
}

// fragmentErr reports a forced-strategy fragment rejection (Hybrid and
// TopDownDet cover restricted query fragments; that is a skip, not a
// failure).
func fragmentErr(strategy, errText string) bool {
	return (strategy == "hybrid" || strategy == "topdown-det") &&
		strings.Contains(errText, "fragment")
}

// mutGenSnap is one pinned generation with its two oracles. fresh is an
// independent engine over the generation's tree with the index rebuilt
// from scratch (core.New never sees the incrementally maintained one) —
// the node-exact reference. reparsed is a full parse-from-scratch
// engine over the generation's serialized XML; re-parsing coalesces the
// adjacent #text siblings XMark's generator emits, which shifts
// preorder ranks but cannot change which *elements* exist, so it
// cross-checks answer cardinalities with zero shared state.
type mutGenSnap struct {
	gen      store.Gen
	fresh    *core.Engine
	reparsed *core.Engine
}

// pinGeneration issues a one-node page to obtain a cursor token — the
// token's hour-long lease keeps the current generation alive across the
// rest of the patch sequence — and builds the generation's oracles.
func pinGeneration(t *testing.T, svc *service.Service) mutGenSnap {
	t.Helper()
	first := svc.Eval(service.Request{Doc: "xm", Query: "//*", Limit: 1})
	if first.Err != "" || first.Next == "" {
		t.Fatalf("pinning generation: err=%q next=%q", first.Err, first.Next)
	}
	h, err := svc.Store().Acquire("xm", first.Gen)
	if err != nil {
		t.Fatalf("fetching pinned gen %d: %v", first.Gen, err)
	}
	svc.Store().Release("xm", first.Gen, time.Time{}, false)
	doc, err := xmlparse.ParseString(h.Doc.XMLString())
	if err != nil {
		t.Fatalf("re-parsing gen %d: %v", first.Gen, err)
	}
	return mutGenSnap{gen: first.Gen, fresh: core.New(h.Doc), reparsed: core.New(doc)}
}

// randomPatch applies one random applicable patch (inserts weighted to
// keep documents growing, occasional deletes and replaces) and returns
// the new node count. Inapplicable rolls (deleting the document
// element, malformed targets) are retried.
func randomPatch(t *testing.T, svc *service.Service, rng *rand.Rand, nodes int) int {
	t.Helper()
	for attempt := 0; attempt < 32; attempt++ {
		var req service.PatchDocRequest
		switch roll := rng.Intn(6); {
		case roll < 4: // insert under a random element
			req = service.PatchDocRequest{
				Op:   "insert",
				Node: tree.NodeID(1 + rng.Intn(nodes)),
				XML:  mutationFragments[rng.Intn(len(mutationFragments))],
			}
		case roll == 4: // delete a random non-root subtree
			req = service.PatchDocRequest{
				Op:   "delete",
				Node: tree.NodeID(2 + rng.Intn(nodes-1)),
			}
		default: // replace a random non-root subtree
			req = service.PatchDocRequest{
				Op:   "replace",
				Node: tree.NodeID(2 + rng.Intn(nodes-1)),
				XML:  mutationFragments[rng.Intn(len(mutationFragments))],
			}
		}
		stats, err := svc.PatchDoc("xm", req)
		if err != nil {
			continue
		}
		return stats.Nodes
	}
	t.Fatal("no applicable patch in 32 attempts")
	return 0
}

// pagedNodes drains a query at AsOf gen through 100-node cursor hops.
func pagedNodes(t *testing.T, svc *service.Service, query, strategy string, gen store.Gen) ([]tree.NodeID, string) {
	t.Helper()
	req := service.Request{Doc: "xm", Query: query, Strategy: strategy, AsOf: gen, Limit: 100}
	var out []tree.NodeID
	for {
		resp := svc.Eval(req)
		if resp.Err != "" {
			return nil, resp.Err
		}
		if resp.Gen != gen {
			t.Fatalf("%s under %s: page served gen %d, want pinned %d", query, strategy, resp.Gen, gen)
		}
		out = append(out, resp.Nodes...)
		if resp.Next == "" {
			return out, ""
		}
		// Resumes ride the token alone: it pins the generation itself.
		req = service.Request{Doc: "xm", Query: query, Strategy: strategy, Cursor: resp.Next, Limit: 100}
	}
}

// streamedNodes drains a query at AsOf gen through the NDJSON stream.
func streamedNodes(t *testing.T, svc *service.Service, query, strategy string, gen store.Gen) ([]tree.NodeID, string) {
	t.Helper()
	var buf bytes.Buffer
	pre := svc.Stream(&buf, service.Request{Doc: "xm", Query: query, Strategy: strategy, AsOf: gen}, 256)
	if pre != nil {
		return nil, pre.Err
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	var header service.StreamHeader
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatalf("stream header: %v", err)
	}
	if header.Gen != gen {
		t.Fatalf("%s under %s: stream served gen %d, want pinned %d", query, strategy, header.Gen, gen)
	}
	var trailer service.StreamTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatalf("stream trailer: %v", err)
	}
	if !trailer.Done {
		t.Fatalf("%s under %s: stream not done", query, strategy)
	}
	out := []tree.NodeID{}
	for _, l := range lines[1 : len(lines)-1] {
		var c service.StreamChunk
		if err := json.Unmarshal([]byte(l), &c); err != nil {
			t.Fatalf("stream chunk: %v", err)
		}
		out = append(out, c.Nodes...)
	}
	return out, ""
}

func TestMutationDifferential(t *testing.T) {
	patches := 6
	if testing.Short() {
		patches = 3
	}

	svc := service.New(shard.NewStore(1), service.Options{CursorTTL: time.Hour})
	h, err := svc.Store().GenerateXMark("xm", 0.002, 42)
	if err != nil {
		t.Fatal(err)
	}
	nodes := h.Stats.Nodes

	rng := rand.New(rand.NewSource(7))
	snaps := []mutGenSnap{pinGeneration(t, svc)}
	for i := 0; i < patches; i++ {
		nodes = randomPatch(t, svc, rng, nodes)
		snaps = append(snaps, pinGeneration(t, svc))
	}

	// Then one patch that interns labels. Before it every fresh-label
	// query is evaluated under every strategy, so whatever a generation
	// without zzz and @q compiles is compiled and cached; after it the
	// replay below holds each of them to an oracle that never saw a cache.
	queries := append(xmark.Queries(), freshLabelQueries...)
	expectEmptyChain(t, svc, store.NoGen)
	for _, q := range freshLabelQueries {
		for _, strategy := range mutationStrategies {
			if resp := svc.Eval(service.Request{Doc: "xm", Query: q.XPath, Strategy: strategy}); resp.Err != "" && !fragmentErr(strategy, resp.Err) {
				t.Fatalf("%s under %s before the fresh-label patch: %s", q.ID, strategy, resp.Err)
			}
		}
	}
	if _, err := svc.PatchDoc("xm", service.PatchDocRequest{Op: "insert", Node: tree.NodeID(1), XML: freshLabelFragment}); err != nil {
		t.Fatal(err)
	}
	snaps = append(snaps, pinGeneration(t, svc))
	if got := svc.Eval(service.Request{Doc: "xm", Query: "//zzz"}); got.Count != 1 {
		t.Fatalf("//zzz after the fresh-label patch: count=%d strategy=%q err=%q, want the grafted element", got.Count, got.Strategy, got.Err)
	}
	// The generations before it still do not have the label.
	for _, snap := range snaps[:len(snaps)-1] {
		expectEmptyChain(t, svc, snap.gen)
	}

	// Sanity: the sequence really produced distinct generations, and the
	// latest read (AsOf zero) answers the newest snapshot.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].gen == snaps[i-1].gen {
			t.Fatalf("patch %d did not bump the generation (%d)", i, snaps[i].gen)
		}
	}
	if latest := svc.Eval(service.Request{Doc: "xm", Query: "//*"}); latest.Gen != snaps[len(snaps)-1].gen {
		t.Fatalf("latest gen = %d, want %d", latest.Gen, snaps[len(snaps)-1].gen)
	}

	// Replay every generation — all patches are already applied, so each
	// pass is a genuine time-travel read against a superseded tree.
	for i, snap := range snaps {
		for _, q := range queries {
			want, err := snap.fresh.QueryWith(q.XPath, core.Optimized)
			if err != nil {
				t.Fatalf("oracle gen %d %s: %v", snap.gen, q.ID, err)
			}
			// The parse-from-scratch engine must agree on cardinality
			// (preorder ranks shift with #text coalescing; element
			// existence cannot — node() counts the text nodes, so it is
			// held to the node-exact oracle alone).
			if !strings.Contains(q.XPath, "node()") {
				rp, err := snap.reparsed.QueryWith(q.XPath, core.Optimized)
				if err != nil {
					t.Fatalf("reparse oracle gen %d %s: %v", snap.gen, q.ID, err)
				}
				if len(rp.Nodes) != len(want.Nodes) {
					t.Fatalf("gen %d (patch %d) %s: fresh-index oracle has %d nodes, parse-from-scratch has %d",
						snap.gen, i, q.ID, len(want.Nodes), len(rp.Nodes))
				}
			}
			for _, strategy := range mutationStrategies {
				resp := svc.Eval(service.Request{Doc: "xm", Query: q.XPath, Strategy: strategy, AsOf: snap.gen})
				if resp.Err != "" {
					if fragmentErr(strategy, resp.Err) {
						continue
					}
					t.Fatalf("gen %d (patch %d) %s under %s: %s", snap.gen, i, q.ID, strategy, resp.Err)
				}
				if resp.Gen != snap.gen || resp.Count != len(want.Nodes) || !equalNodes(resp.Nodes, want.Nodes) {
					t.Fatalf("gen %d (patch %d) %s under %s: got gen=%d count=%d nodes=%d, oracle has %d nodes",
						snap.gen, i, q.ID, strategy, resp.Gen, resp.Count, len(resp.Nodes), len(want.Nodes))
				}

				paged, errText := pagedNodes(t, svc, q.XPath, strategy, snap.gen)
				if errText != "" {
					t.Fatalf("gen %d %s under %s paged: %s", snap.gen, q.ID, strategy, errText)
				}
				if !equalNodes(paged, want.Nodes) {
					t.Fatalf("gen %d %s under %s: paged %d nodes != oracle %d",
						snap.gen, q.ID, strategy, len(paged), len(want.Nodes))
				}

				streamed, errText := streamedNodes(t, svc, q.XPath, strategy, snap.gen)
				if errText != "" {
					t.Fatalf("gen %d %s under %s streamed: %s", snap.gen, q.ID, strategy, errText)
				}
				if !equalNodes(streamed, want.Nodes) {
					t.Fatalf("gen %d %s under %s: streamed %d nodes != oracle %d",
						snap.gen, q.ID, strategy, len(streamed), len(want.Nodes))
				}
			}
		}
	}
}
