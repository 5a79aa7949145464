package service

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/shard"
)

// The stream-vs-materialize benchmark: one XMark document whose
// /site//* answer exceeds 100k nodes, delivered (a) the classic way —
// Eval materializes the node slice and the whole Response is JSON
// encoded in one piece — and (b) over the streaming path — the answer
// is read cursor-wise into fixed NDJSON chunks. The two numbers that
// matter: allocated bytes per answer (the streaming path must be far
// below: no 100k-element slice, no multi-MB JSON blob) and first-byte
// latency (streaming emits its header+first chunk before the answer is
// fully encoded; materializing cannot say anything before the end).

const (
	benchStreamScale = 0.1
	benchStreamQuery = "/site//*"
)

func benchService(tb testing.TB) *Service {
	tb.Helper()
	svc := New(shard.NewStore(1), Options{})
	if _, err := svc.Store().GenerateXMark("xm", benchStreamScale, 1); err != nil {
		tb.Fatal(err)
	}
	// Warm the compiled-automaton cache; the benchmark measures result
	// delivery, not compilation.
	if resp := svc.Eval(Request{Doc: "xm", Query: benchStreamQuery, Limit: 1}); resp.Err != "" {
		tb.Fatal(resp.Err)
	}
	return svc
}

// firstByteWriter discards output but records when the first byte and
// every subsequent write happen.
type firstByteWriter struct {
	start     time.Time
	firstByte time.Duration
	n         int64
}

func (w *firstByteWriter) Write(p []byte) (int, error) {
	if w.firstByte == 0 && len(p) > 0 {
		w.firstByte = time.Since(w.start)
	}
	w.n += int64(len(p))
	return len(p), nil
}

func BenchmarkStreamVsMaterialize(b *testing.B) {
	svc := benchService(b)
	req := Request{Doc: "xm", Query: benchStreamQuery}

	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		var firstByteNS int64
		for i := 0; i < b.N; i++ {
			w := &firstByteWriter{start: time.Now()}
			resp := svc.Eval(req)
			if resp.Err != "" {
				b.Fatal(resp.Err)
			}
			if err := json.NewEncoder(w).Encode(resp); err != nil {
				b.Fatal(err)
			}
			firstByteNS += int64(w.firstByte)
		}
		b.ReportMetric(float64(firstByteNS)/float64(b.N), "first-byte-ns/op")
	})

	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		var firstByteNS int64
		for i := 0; i < b.N; i++ {
			w := &firstByteWriter{start: time.Now()}
			if pre := svc.Stream(w, req, DefaultStreamChunk); pre != nil {
				b.Fatal(pre.Err)
			}
			firstByteNS += int64(w.firstByte)
		}
		b.ReportMetric(float64(firstByteNS)/float64(b.N), "first-byte-ns/op")
	})

	// With per-node label paths the delivery layer dominates the
	// allocation picture: the materializing path builds one
	// 100k-string slice, the stream holds one chunk's worth.
	reqPaths := Request{Doc: "xm", Query: benchStreamQuery, Paths: true}
	b.Run("materialize-paths", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := &firstByteWriter{start: time.Now()}
			resp := svc.Eval(reqPaths)
			if resp.Err != "" {
				b.Fatal(resp.Err)
			}
			if err := json.NewEncoder(w).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream-paths", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := &firstByteWriter{start: time.Now()}
			if pre := svc.Stream(w, reqPaths, DefaultStreamChunk); pre != nil {
				b.Fatal(pre.Err)
			}
		}
	})
}

// BenchmarkCursorPaging measures one limit/cursor page against the
// materializing full answer: the bounded-memory unit of the paged API.
func BenchmarkCursorPaging(b *testing.B) {
	svc := benchService(b)
	b.Run("page-1k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp := svc.Eval(Request{Doc: "xm", Query: benchStreamQuery, Limit: 1000})
			if resp.Err != "" || resp.Next == "" {
				b.Fatalf("err=%q next=%q", resp.Err, resp.Next)
			}
		}
	})
}

// benchJSON is one trajectory point of the BENCH_*.json series.
type benchJSON struct {
	Benchmark string  `json:"benchmark"`
	Variant   string  `json:"variant"`
	Query     string  `json:"query"`
	Scale     float64 `json:"scale"`
	AnswerN   int     `json:"answer_nodes"`
	NsPerOp   int64   `json:"ns_per_op"`
	BytesOp   int64   `json:"alloc_bytes_per_op"`
	AllocsOp  int64   `json:"allocs_per_op"`
	FirstByte float64 `json:"first_byte_ns_per_op,omitempty"`
	GoVersion string  `json:"go_version"`
}

// TestEmitBenchJSON runs the stream-vs-materialize comparison via
// testing.Benchmark and writes the results as JSON, starting the
// BENCH_*.json trajectory. Skipped unless BENCH_JSON names the output
// file:
//
//	BENCH_JSON=BENCH_stream.json go test -run TestEmitBenchJSON ./internal/service
func TestEmitBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("set BENCH_JSON=<file> to emit the benchmark trajectory point")
	}
	svc := benchService(t)
	req := Request{Doc: "xm", Query: benchStreamQuery}
	count := svc.Eval(Request{Doc: "xm", Query: benchStreamQuery, Limit: 1}).Count

	variants := []struct {
		name string
		run  func(w io.Writer) error
	}{
		{"materialize", func(w io.Writer) error {
			resp := svc.Eval(req)
			return json.NewEncoder(w).Encode(resp)
		}},
		{"stream", func(w io.Writer) error {
			pre := svc.Stream(w, req, DefaultStreamChunk)
			if pre != nil {
				t.Fatal(pre.Err)
			}
			return nil
		}},
	}
	var out []benchJSON
	for _, v := range variants {
		v := v
		var firstByteNS int64
		var ops int
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			firstByteNS, ops = 0, b.N
			for i := 0; i < b.N; i++ {
				w := &firstByteWriter{start: time.Now()}
				if err := v.run(w); err != nil {
					b.Fatal(err)
				}
				firstByteNS += int64(w.firstByte)
			}
		})
		out = append(out, benchJSON{
			Benchmark: "BenchmarkStreamVsMaterialize",
			Variant:   v.name,
			Query:     benchStreamQuery,
			Scale:     benchStreamScale,
			AnswerN:   count,
			NsPerOp:   r.NsPerOp(),
			BytesOp:   r.AllocedBytesPerOp(),
			AllocsOp:  r.AllocsPerOp(),
			FirstByte: float64(firstByteNS) / float64(ops),
			GoVersion: runtime.Version(),
		})
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
