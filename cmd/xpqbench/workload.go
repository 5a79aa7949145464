package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/stepwise"
	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlparse"
)

// reqKind is the endpoint a request goes to.
type reqKind uint8

const (
	kindQuery  reqKind = iota // POST /query, one JSON reply
	kindStream                // POST /query/stream, NDJSON reply
	kindPatch                 // PATCH /docs/{id}
)

// request is one slot of a connection's request list. Lists are
// replayed cyclically; a continuation always follows its first page
// within the same pass, so wrapping around never dangles a cursor.
type request struct {
	kind  reqKind
	doc   int32
	query int32 // index into workload.queries; unused for patches
	limit int32 // page size; 0 asks for the whole answer
	page  int32 // 0 for a first page, j for the j-th continuation
	from  int32 // list position whose next token this request resumes; -1 for none
	keep  bool  // a later slot resumes this request's next token
}

// workload is one traffic mix against one corpus.
type workload struct {
	name string
	// why is the one-line reason in BENCHMARK.json.
	why     string
	docs    int
	scale   float64
	queries []string
	// mapped corpora are saved as XQO2 and opened with -mmap under a
	// resident budget of a quarter of their size; the others are XML
	// files given to -load.
	mapped bool
	// rate is the open-phase arrival rate in requests/s over both
	// connections: a quarter of the closed-phase throughput measured
	// when the workload was defined, rounded down to two digits, then
	// frozen so that later commits are measured under the same load. (At
	// half the throughput, the sandbox's drifting speed turned into
	// latency swings of a factor of two and more; see README.md.)
	rate float64
	// setupReps is how many times the daemon's set-up is timed in one
	// run: more often where one set-up is short.
	setupReps int
	cursorTTL string // -cursor-ttl; "" keeps the daemon's default
	writes    bool   // connection 0 carries PATCH requests
	lists     func(w *workload, c *corpus, r *rng) [2][]request
}

// paperQueries maps XMark query ids (Q01..Q15) to their XPath text.
func paperQueries(ids ...string) []string {
	all := xmark.Queries()
	if len(ids) == 0 {
		out := make([]string, len(all))
		for i, q := range all {
			out[i] = q.XPath
		}
		return out
	}
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		for _, q := range all {
			if q.ID == id {
				out = append(out, q.XPath)
			}
		}
	}
	if len(out) != len(ids) {
		panic(fmt.Sprintf("unknown paper query among %v", ids))
	}
	return out
}

// bulkQueries are bulk-stream's queries: the paper's Q11 and the same
// shape over three other frequent labels. One label jump finds each
// answer (7 000 to 11 000 nodes of the 215 000), so evaluating costs
// about half of what delivering the answer costs. Every other paper
// query, and /site//*, costs more to evaluate than to deliver whole.
var bulkQueries = []string{"/site//keyword", "/site//text", "/site//listitem", "/site//emph"}

// workloads returns the four traffic mixes. The reasons each exists are
// in README.md; the short form is the why field.
func workloads() []*workload {
	return []*workload{
		{
			name:      "paper-mix",
			why:       "15 paper queries, limit 100, on one 1.1M-node document: evaluation is nearly all the work, delivery almost none",
			docs:      1,
			scale:     0.5,
			queries:   paperQueries(),
			rate:      90,
			setupReps: 7,
			lists:     paperMixLists,
		},
		{
			name:      "point-lookup",
			why:       "cheap queries, zipf over 256 mmap'd 4k-node documents under a 25% resident budget: the request path is the work, evaluation is not",
			docs:      256,
			scale:     0.002,
			queries:   paperQueries("Q01", "Q02", "Q03", "Q04"),
			mapped:    true,
			rate:      3600,
			setupReps: 15,
			lists:     pointLookupLists,
		},
		{
			name:      "bulk-stream",
			why:       "four /site//label answers (7-11k nodes of 215k) delivered whole, half streamed, half in two pages: encode + cursor drain is 54% of the in-process handler time, evaluation 43%",
			docs:      1,
			scale:     0.1,
			queries:   bulkQueries,
			rate:      500,
			setupReps: 15,
			lists:     bulkStreamLists,
		},
		{
			name:      "patch-mix",
			why:       "10% PATCH beside paged reads on eight 109k-node documents: the write path, and reads that lose warm state at every new generation",
			docs:      8,
			scale:     0.05,
			queries:   paperQueries("Q02", "Q04", "Q05", "Q07", "Q09", "Q11"),
			rate:      380,
			setupReps: 7,
			cursorTTL: "500ms",
			writes:    true,
			lists:     patchMixLists,
		},
	}
}

// quickened returns the smoke-test form of w: same routes, flags and
// list shape over a corpus small enough to build in milliseconds.
func (w *workload) quickened() *workload {
	q := *w
	q.scale = 0.002
	if q.docs > 16 {
		q.docs = 16
	}
	q.setupReps = 1
	return &q
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// corpus is the generated document set of one workload, as files for
// the daemon and as in-process documents for the oracle.
type corpus struct {
	dir   string
	ids   []string
	paths []string
	// docs are the documents exactly as the daemon will see them (XML
	// corpora are re-parsed from the written text, because adjacent
	// text nodes merge on the way through XML and shift node ids).
	docs      []*tree.Document
	fileBytes int64
	// counts and sums are the oracle: per document and query, the
	// answer cardinality and a checksum of the node ids, from the
	// step-wise baseline.
	counts [][]int
	sums   [][]uint64
	plan   *patchPlan // write workloads only
}

// checksum folds node ids into one FNV-1a value.
func checksum(nodes []tree.NodeID) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range nodes {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// oracle answers every query of w on d with the step-wise baseline.
func oracle(w *workload, d *tree.Document) (counts []int, sums []uint64, err error) {
	counts = make([]int, len(w.queries))
	sums = make([]uint64, len(w.queries))
	for q, text := range w.queries {
		res, err := stepwise.EvalString(d, text, stepwise.Default())
		if err != nil {
			return nil, nil, fmt.Errorf("oracle: %q: %w", text, err)
		}
		counts[q], sums[q] = len(res.Selected), checksum(res.Selected)
	}
	return counts, sums, nil
}

// buildCorpus generates w's documents from r into dir and computes the
// oracle. Nothing here is timed.
func buildCorpus(w *workload, dir string, r *rng) (*corpus, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &corpus{dir: dir}
	seeds := r.fork("corpus")
	for i := 0; i < w.docs; i++ {
		id := "d" + strconv.Itoa(1000 + i)[1:]
		d := xmark.Generate(xmark.Config{Scale: w.scale, Seed: int64(seeds.next() >> 1)})
		var path string
		if w.mapped {
			path = filepath.Join(dir, id+".xqo2")
			if err := store.SaveXQO2File(path, d); err != nil {
				return nil, err
			}
		} else {
			path = filepath.Join(dir, id+".xml")
			text := []byte(d.XMLString())
			if err := os.WriteFile(path, text, 0o644); err != nil {
				return nil, err
			}
			var err error
			if d, err = xmlparse.Parse(text); err != nil {
				return nil, fmt.Errorf("re-parsing generated %s: %w", path, err)
			}
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		counts, sums, err := oracle(w, d)
		if err != nil {
			return nil, err
		}
		c.ids = append(c.ids, id)
		c.paths = append(c.paths, path)
		c.docs = append(c.docs, d)
		c.fileBytes += fi.Size()
		c.counts = append(c.counts, counts)
		c.sums = append(c.sums, sums)
	}
	if w.writes {
		plan, err := buildPatchPlan(w, c, r.fork("patches"))
		if err != nil {
			return nil, err
		}
		c.plan = plan
	}
	return c, nil
}

// daemonArgs are the flags that hand the corpus to xpqd. They name
// generated files only: the program under test never sees the seed or
// the workload's name.
func (c *corpus) daemonArgs(w *workload) []string {
	var args []string
	if w.mapped {
		args = append(args, "-mmap", c.dir, "-resident-budget", strconv.FormatInt(c.fileBytes/4, 10))
	} else {
		for i, id := range c.ids {
			args = append(args, "-load", id+"="+c.paths[i])
		}
	}
	if w.cursorTTL != "" {
		args = append(args, "-cursor-ttl", w.cursorTTL)
	}
	return args
}

// blocks fills n slots with repeated random permutations of 0..k-1, so
// every value occurs equally often whatever the seed: seeds change the
// order of the work, not its amount.
func blocks(r *rng, k, n int) []int32 {
	out := make([]int32, 0, n+k)
	for len(out) < n {
		for _, v := range r.perm(k) {
			out = append(out, int32(v))
		}
	}
	return out[:n]
}

// paperMixLists: the 15 paper queries uniformly, first page of 100.
func paperMixLists(w *workload, _ *corpus, r *rng) [2][]request {
	var lists [2][]request
	for c := range lists {
		for _, q := range blocks(r.fork("conn"+strconv.Itoa(c)), len(w.queries), 64*len(w.queries)) {
			lists[c] = append(lists[c], request{kind: kindQuery, query: q, limit: 100, from: -1})
		}
	}
	return lists
}

// pointLookupLists: document by zipf(1.1) rank through a seeded
// permutation, query balanced, first page of 20.
func pointLookupLists(w *workload, _ *corpus, r *rng) [2][]request {
	const n = 8192
	z := newZipf(w.docs, 1.1)
	byRank := r.fork("ranks").perm(w.docs)
	var lists [2][]request
	for c := range lists {
		cr := r.fork("conn" + strconv.Itoa(c))
		for _, q := range blocks(cr, len(w.queries), n) {
			doc := byRank[z.draw(cr)]
			lists[c] = append(lists[c], request{kind: kindQuery, doc: int32(doc), query: q, limit: 20, from: -1})
		}
	}
	return lists
}

// bulkChunk is the stream chunk size of bulk-stream (the daemon's
// default, which the traced replay must use too). bulkPage is its page
// size: every page of a paged read evaluates its query again, so pages
// of 512 made bulk-stream a second evaluation workload (evaluation 78 %
// of the handler time); with 6 000 every answer is two pages, one
// continuation each.
const (
	bulkChunk = 512
	bulkPage  = 6000
)

// bulkStreamLists: per round every query is read twice by pages (each
// page a request of its own that resumes the previous page's token) and
// streamed once per page of those reads, so half the requests are
// streams and half are pages, and every answer is delivered whole.
// Streams and paged reads are shuffled together, the pages of one read
// kept in order.
func bulkStreamLists(w *workload, c *corpus, r *rng) [2][]request {
	const rounds = 16
	var lists [2][]request
	for ci := range lists {
		cr := r.fork("conn" + strconv.Itoa(ci))
		for round := 0; round < rounds; round++ {
			// The paged reads of the round, in random order, pages in order.
			var paged []request
			for _, q := range append(cr.perm(len(w.queries)), cr.perm(len(w.queries))...) {
				pages := max(1, (c.counts[0][q]+bulkPage-1)/bulkPage)
				for p := 0; p < pages; p++ {
					paged = append(paged, request{kind: kindQuery, query: int32(q), limit: bulkPage, page: int32(p)})
				}
			}
			streams := blocks(cr, len(w.queries), len(paged))
			// Interleave by shuffling which slots are streamed.
			streamed := make([]bool, 2*len(paged))
			for i := range paged {
				streamed[i] = true
			}
			cr.shuffle(len(streamed), func(i, j int) { streamed[i], streamed[j] = streamed[j], streamed[i] })
			prevPage := int32(-1)
			for _, s := range streamed {
				if s {
					lists[ci] = append(lists[ci], request{kind: kindStream, query: streams[0], from: -1})
					streams = streams[1:]
					continue
				}
				req := paged[0]
				paged = paged[1:]
				req.from = -1
				if req.page > 0 {
					req.from = prevPage
					lists[ci][prevPage].keep = true
				}
				prevPage = int32(len(lists[ci]))
				lists[ci] = append(lists[ci], req)
			}
		}
	}
	return lists
}

// patchMixLists: connection 0 spends two slots in ten on PATCH (10% of
// all requests; every write on one connection, in order) and the rest
// on reads; connection 1 only reads. One read in three is a two-page
// read whose second page comes at least eight slots later on the same
// connection, so it pins its generation across the patches between.
func patchMixLists(w *workload, _ *corpus, r *rng) [2][]request {
	const (
		n        = 1800 // a multiple of ten
		pageGap  = 9
		readPage = 100
	)
	type pending struct{ first, readyAt int32 }
	var lists [2][]request
	for ci := range lists {
		cr := r.fork("conn" + strconv.Itoa(ci))
		isPatch := make([]bool, n)
		if ci == 0 {
			for b := 0; b < n; b += 10 {
				p := cr.perm(10)
				isPatch[b+p[0]], isPatch[b+p[1]] = true, true
			}
		}
		docs := blocks(cr, w.docs, n)
		queries := blocks(cr, len(w.queries), n)
		patchDocs := blocks(cr, w.docs, n/5)
		var waiting []pending // second pages, oldest first
		reads, patches := 0, 0
		for i := int32(0); i < n; i++ {
			switch {
			case isPatch[i]:
				lists[ci] = append(lists[ci], request{kind: kindPatch, doc: patchDocs[patches], from: -1})
				patches++
			case len(waiting) > 0 && waiting[0].readyAt <= i:
				first := waiting[0].first
				waiting = waiting[1:]
				second := lists[ci][first]
				second.page, second.from = 1, first
				lists[ci][first].keep = true
				lists[ci] = append(lists[ci], second)
			default:
				lists[ci] = append(lists[ci], request{kind: kindQuery, doc: docs[reads], query: queries[reads], limit: readPage, from: -1})
				reads++
				if reads%3 == 0 && i+pageGap < n {
					waiting = append(waiting, pending{first: i, readyAt: i + pageGap})
				}
			}
		}
	}
	return lists
}

// hashLists folds both request lists into one value; a test pins it
// per workload for seed 1.
func hashLists(lists [2][]request) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(v int32) {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	for _, list := range lists {
		put(int32(len(list)))
		for _, q := range list {
			keep := int32(0)
			if q.keep {
				keep = 1
			}
			put(int32(q.kind))
			put(q.doc)
			put(q.query)
			put(q.limit)
			put(q.page)
			put(q.from)
			put(keep)
		}
	}
	return h.Sum64()
}
