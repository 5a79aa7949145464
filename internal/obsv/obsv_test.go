package obsv

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace()
	root := tr.Begin(SpanQuery)
	a := tr.Begin(SpanEngine)
	tr.End(a)
	b := tr.Begin(SpanRun)
	p := tr.Begin(SpanParse)
	tr.End(p)
	c := tr.Begin(SpanCompile)
	tr.End(c)
	tr.End(b)
	tr.End(root)
	var cs Counters
	cs.Strategy = "optimized"
	cs.Visited = 42

	prof := tr.Profile("req-1", cs)
	if prof == nil {
		t.Fatal("trace must produce a profile")
	}
	if prof.RequestID != "req-1" || prof.Counters.Visited != 42 {
		t.Errorf("profile head wrong: %+v", prof)
	}
	if len(prof.Spans) != 1 || prof.Spans[0].Name != SpanQuery {
		t.Fatalf("want one root span %q, got %+v", SpanQuery, prof.Spans)
	}
	kids := prof.Spans[0].Children
	if len(kids) != 2 || kids[0].Name != SpanEngine || kids[1].Name != SpanRun {
		t.Fatalf("root children = %+v", kids)
	}
	if len(kids[1].Children) != 2 {
		t.Fatalf("eval children = %+v", kids[1].Children)
	}
	for _, s := range kids[1].Children {
		if s.DurUS < 0 || s.StartUS < 0 {
			t.Errorf("negative timing in %+v", s)
		}
	}
}

func TestTraceEndOutOfOrderClosesInner(t *testing.T) {
	tr := NewTrace()
	outer := tr.Begin("outer")
	tr.Begin("inner") // never explicitly ended
	tr.End(outer)
	prof := tr.Profile("", Counters{})
	if len(prof.Spans) != 1 || len(prof.Spans[0].Children) != 1 {
		t.Fatalf("spans = %+v", prof.Spans)
	}
	if prof.Spans[0].Children[0].DurUS < 0 {
		t.Error("inner span left unclosed")
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	id := tr.Begin("x")
	tr.End(id)
	if id != -1 || tr.Profile("r", Counters{}) != nil {
		t.Error("nil trace must be inert")
	}
}

func TestTraceOverflowDropsSpans(t *testing.T) {
	tr := NewTrace()
	root := tr.Begin("root")
	for i := 0; i < 3*maxSpans; i++ {
		tr.End(tr.Begin("leaf"))
	}
	tr.End(root)
	prof := tr.Profile("", Counters{})
	if len(prof.Spans) != 1 {
		t.Fatalf("root count = %d", len(prof.Spans))
	}
	if got := len(prof.Spans[0].Children); got != maxSpans-1 {
		t.Errorf("kept %d children, want %d (truncated, not grown)", got, maxSpans-1)
	}
}

func TestFlightRingWrapAndOrder(t *testing.T) {
	f := NewFlight(4, 0)
	for i := 0; i < 10; i++ {
		f.Add(&Record{Doc: "d", Query: "q", ElapsedUS: int64(i)})
	}
	snap := f.Snapshot(0, false)
	if snap.Total != 10 || snap.Capacity != 4 || len(snap.Records) != 4 {
		t.Fatalf("snapshot head: %+v", snap)
	}
	for i, r := range snap.Records {
		if want := int64(9 - i); r.ElapsedUS != want || r.Seq != uint64(9-i) {
			t.Errorf("records[%d] = elapsed %d seq %d, want %d (newest first)", i, r.ElapsedUS, r.Seq, want)
		}
	}
	if got := len(f.Snapshot(2, false).Records); got != 2 {
		t.Errorf("limit 2 returned %d", got)
	}
}

func TestFlightSlowThreshold(t *testing.T) {
	f := NewFlight(8, 5*time.Millisecond)
	if f.Add(&Record{ElapsedUS: 1000}) {
		t.Error("1ms flagged slow at a 5ms threshold")
	}
	if !f.Add(&Record{ElapsedUS: 5000}) {
		t.Error("5ms not flagged slow at a 5ms threshold")
	}
	if !f.Add(&Record{ElapsedUS: 90000}) {
		t.Error("90ms not flagged slow")
	}
	onlySlow := f.Snapshot(0, true)
	if onlySlow.Total != 3 || len(onlySlow.Records) != 2 {
		t.Fatalf("slowOnly returned %d of %d records, want 2 of 3", len(onlySlow.Records), onlySlow.Total)
	}
	for _, r := range onlySlow.Records {
		if !r.Slow {
			t.Errorf("non-slow record in slow snapshot: %+v", r)
		}
	}
	if NewFlight(8, 0).Add(&Record{ElapsedUS: 1 << 40}) {
		t.Error("threshold 0 must disable the flag")
	}
}

// BenchmarkFlightAdd times one admission into the flight ring, the
// critical section every finished request passes through: with one
// writer, and with two writers sharing the ring and b.N (ns/op is per
// admission either way). Each writer adds its own record, as each
// request does.
func BenchmarkFlightAdd(b *testing.B) {
	for _, writers := range []int{1, 2} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			f := NewFlight(DefaultFlightRecords, 100*time.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := range writers {
				n := b.N / writers
				if w == 0 {
					n += b.N % writers
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					rec := Record{Doc: "xm", Query: "/site/regions", Outcome: OutcomeOK, Run: Run{Strategy: "optimized"}}
					for range n {
						f.Add(&rec)
					}
				}()
			}
			wg.Wait()
		})
	}
}

func TestPromWriterFormat(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Family("t_total", `a "quoted" help\line`, TypeCounter)
	p.Sample("t_total", 42, "shard", "0", "strategy", `we"ird\nm`+"\n")
	p.Family("t_gauge", "g", TypeGauge)
	p.Sample("t_gauge", 0.25)
	p.Sample("t_gauge", 1e16, "k", "v")
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wantLines := []string{
		`# HELP t_total a "quoted" help\\line`,
		"# TYPE t_total counter",
		`t_total{shard="0",strategy="we\"ird\\nm\n"} 42`,
		"# HELP t_gauge g",
		"# TYPE t_gauge gauge",
		"t_gauge 0.25",
		`t_gauge{k="v"} 1e+16`,
	}
	got := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("line count %d, want %d:\n%s", len(got), len(wantLines), out)
	}
	for i := range wantLines {
		if got[i] != wantLines[i] {
			t.Errorf("line %d = %q, want %q", i, got[i], wantLines[i])
		}
	}
}

func TestPromWriterHistogramCumulative(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Family("h_seconds", "h", TypeHistogram)
	p.Histogram("h_seconds", []float64{0.001, 0.01}, []uint64{3, 2, 1}, 0.5, "shard", "1")
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "# HELP h_seconds h\n" +
		"# TYPE h_seconds histogram\n" +
		`h_seconds_bucket{shard="1",le="0.001"} 3` + "\n" +
		`h_seconds_bucket{shard="1",le="0.01"} 5` + "\n" +
		`h_seconds_bucket{shard="1",le="+Inf"} 6` + "\n" +
		`h_seconds_sum{shard="1"} 0.5` + "\n" +
		`h_seconds_count{shard="1"} 6` + "\n"
	if sb.String() != want {
		t.Errorf("histogram exposition:\n got:\n%s\nwant:\n%s", sb.String(), want)
	}
}
