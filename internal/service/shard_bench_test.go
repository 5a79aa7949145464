package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/shard"
	"repro/internal/store"
)

// The shard-scaling benchmark: one mixed workload — a hot set of eight
// XMark documents hit concurrently with cheap point queries, paged
// evals and NDJSON streams, plus evict/reload churn of eight short-
// lived documents — served by 1, 2, 4 and 8 shards over a corpus whose
// compiled-query cache holds ~2k resident automata. Per-query costs are
// identical across shard counts (same documents, same automata, all
// warm); what sharding changes is how many requests share a lock: the
// registry, the LRU and the selector table have one mutex each per
// shard, and the churn holds them — a load publishing, an evict, and
// every compile of a reloaded document inserting into a full LRU and
// pushing a dead label table's entries (and their warm contexts) out
// under that LRU's lock — so only queries routed to the same shard can
// queue behind it. The aggregate-QPS spread between shards-1 and
// shards-8 measures that single-registry cost. (Until PR 19 an evict
// also prefix-scanned the whole owning LRU; BENCH_shard.json's ratio
// was pinned then.)
// GOMAXPROCS is raised to 8 for the duration so CI machines exercise
// real cross-thread handoffs.

const (
	shardBenchHotDocs   = 8
	shardBenchChurnDocs = 8
	shardBenchScale     = 0.0005
	// shardBenchResidentQueries automata are compiled per hot document
	// up front, so the LRUs carry a production-shaped resident set for
	// the evict scans to walk.
	shardBenchResidentQueries = 256
	shardBenchChurnXML        = "<r><a><keyword/></a><b><keyword/></b></r>"
)

// shardBenchQueries are cheap cached queries with small answers, run
// step-wise (occurrence-list joins, no per-node automaton state): the
// regime where serving-layer overhead is a visible fraction of the
// request, as in high-QPS point-query traffic.
var shardBenchQueries = []string{
	"/site/categories",
	"/site/regions",
	"/site/people",
	"//keyword",
}

const shardBenchStrategy = "stepwise"

func shardBenchService(tb testing.TB, shards int) (*Service, []string, []string) {
	tb.Helper()
	ss := shard.NewStore(shards)
	// One capacity well above the resident set in every configuration,
	// so no entry-count eviction muddies the comparison.
	svc := New(ss, Options{CacheSize: 4096})
	hot := make([]string, shardBenchHotDocs)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot-%d", i)
		if _, err := ss.GenerateXMark(hot[i], shardBenchScale, int64(i+1)); err != nil {
			tb.Fatal(err)
		}
	}
	churn := make([]string, shardBenchChurnDocs)
	for i := range churn {
		churn[i] = fmt.Sprintf("churn-%d", i)
		if _, err := ss.LoadXML(churn[i], []byte(shardBenchChurnXML)); err != nil {
			tb.Fatal(err)
		}
	}
	// Fill the caches with a production-shaped resident set of compiled
	// automata (distinct label chains; matching nothing is fine), and
	// warm every hot (doc, query) pair the load will issue.
	for _, id := range hot {
		for i := 0; i < shardBenchResidentQueries; i++ {
			q := fmt.Sprintf("//n%d//keyword", i)
			if resp := svc.Eval(Request{Doc: id, Query: q, Strategy: "optimized"}); resp.Err != "" {
				tb.Fatalf("%s %s: %s", id, q, resp.Err)
			}
		}
		for _, q := range shardBenchQueries {
			if resp := svc.Eval(Request{Doc: id, Query: q, Strategy: shardBenchStrategy}); resp.Err != "" {
				tb.Fatalf("%s %s: %s", id, q, resp.Err)
			}
		}
	}
	return svc, hot, churn
}

// shardBenchBody is one operation of the mixed load, dealt round-robin
// over documents and queries: mostly one-shot point evals, with paged
// evals, full NDJSON streams, and evict+reload churn mixed in.
func shardBenchBody(b *testing.B, svc *Service, hot, churn []string) {
	var ctr atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		i := int(ctr.Add(1)) * 7919 // offset workers so they spread over the hot set
		for pb.Next() {
			i++
			id := hot[i%len(hot)]
			q := shardBenchQueries[i%len(shardBenchQueries)]
			switch i % 8 {
			case 0:
				// Churn: evict one short-lived document (purging its
				// automata — the registry-wide prefix scan) and reload
				// it. Another worker may race us to the reload; losing
				// that race cleanly is part of the workload.
				cid := churn[i%len(churn)]
				svc.EvictDoc(cid)
				if _, err := svc.Store().LoadXML(cid, []byte(shardBenchChurnXML)); err != nil &&
					!errors.Is(err, store.ErrExists) {
					b.Error(err)
					return
				}
			case 1:
				if pre := svc.Stream(io.Discard, Request{Doc: id, Query: q, Strategy: shardBenchStrategy}, DefaultStreamChunk); pre != nil {
					b.Error(pre.Err)
					return
				}
			case 2:
				if resp := svc.Eval(Request{Doc: id, Query: q, Strategy: shardBenchStrategy, Limit: 25}); resp.Err != "" {
					b.Error(resp.Err)
					return
				}
			default:
				if resp := svc.Eval(Request{Doc: id, Query: q, Strategy: shardBenchStrategy, Limit: 10}); resp.Err != "" {
					b.Error(resp.Err)
					return
				}
			}
		}
	})
}

var shardBenchCounts = []int{1, 2, 4, 8}

func BenchmarkShardScaling(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, n := range shardBenchCounts {
		n := n
		b.Run(fmt.Sprintf("shards-%d", n), func(b *testing.B) {
			svc, hot, churn := shardBenchService(b, n)
			b.SetParallelism(4) // 4 x GOMAXPROCS concurrent clients
			b.ReportAllocs()
			b.ResetTimer()
			shardBenchBody(b, svc, hot, churn)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
		})
	}
}

// shardBenchJSON is one trajectory point of the BENCH_shard.json series.
type shardBenchJSON struct {
	Benchmark string   `json:"benchmark"`
	Variant   string   `json:"variant"`
	HotDocs   int      `json:"hot_docs"`
	ChurnDocs int      `json:"churn_docs"`
	Scale     float64  `json:"scale"`
	Resident  int      `json:"resident_automata_per_doc"`
	Queries   []string `json:"queries"`
	Clients   int      `json:"clients"`
	NsPerOp   int64    `json:"ns_per_op"`
	QPS       float64  `json:"qps"`
	BytesOp   int64    `json:"alloc_bytes_per_op"`
	AllocsOp  int64    `json:"allocs_per_op"`
	GoVersion string   `json:"go_version"`
}

// TestEmitShardBenchJSON runs the shard-scaling comparison via
// testing.Benchmark and writes the results as JSON — the shards-1 entry
// is the single-registry baseline the sharded entries are measured
// against. Skipped unless BENCH_SHARD_JSON names the output file:
//
//	BENCH_SHARD_JSON=BENCH_shard.json go test -run TestEmitShardBenchJSON ./internal/service
func TestEmitShardBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_SHARD_JSON")
	if path == "" {
		t.Skip("set BENCH_SHARD_JSON=<file> to emit the benchmark trajectory point")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	clients := 4 * runtime.GOMAXPROCS(0)
	var out []shardBenchJSON
	for _, n := range shardBenchCounts {
		svc, hot, churn := shardBenchService(t, n)
		r := testing.Benchmark(func(b *testing.B) {
			b.SetParallelism(4)
			b.ReportAllocs()
			shardBenchBody(b, svc, hot, churn)
		})
		out = append(out, shardBenchJSON{
			Benchmark: "BenchmarkShardScaling",
			Variant:   fmt.Sprintf("shards-%d", n),
			HotDocs:   shardBenchHotDocs,
			ChurnDocs: shardBenchChurnDocs,
			Scale:     shardBenchScale,
			Resident:  shardBenchResidentQueries,
			Queries:   shardBenchQueries,
			Clients:   clients,
			NsPerOp:   r.NsPerOp(),
			QPS:       float64(r.N) / r.T.Seconds(),
			BytesOp:   r.AllocedBytesPerOp(),
			AllocsOp:  r.AllocsPerOp(),
			GoVersion: runtime.Version(),
		})
		t.Logf("shards-%d: %d ops, %.0f qps", n, r.N, float64(r.N)/r.T.Seconds())
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
