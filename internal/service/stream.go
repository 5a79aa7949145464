package service

import (
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/obsv"
	"repro/internal/store"
	"repro/internal/tree"
)

// The streaming result path: instead of one Response holding the whole
// node set, the answer is written as NDJSON — a header line, then
// fixed-size chunk lines, then a trailer — with a flush after every
// line so the first chunk reaches the client while the rest of the
// answer is still being walked. Writes go straight to the connection,
// so a slow reader throttles the producer (backpressure) instead of
// growing a buffer; peak memory is one chunk, not one answer.

// DefaultStreamChunk is the nodes-per-chunk default for streams whose
// creator did not choose a size.
const DefaultStreamChunk = 512

// StreamHeader is the first NDJSON line of a stream.
type StreamHeader struct {
	Doc      string `json:"doc"`
	Query    string `json:"query"`
	Strategy string `json:"strategy"`
	// Gen is the MVCC generation the stream reads; pass it back as AsOf
	// to keep reading this exact tree across patches.
	Gen store.Gen `json:"gen,omitempty"`
	// Count is the full answer cardinality (the length of the answer:
	// every engine delivers one sorted slice).
	Count   int `json:"count"`
	Visited int `json:"visited"`
}

// StreamChunk is one payload line: a bounded batch of answer nodes in
// preorder.
type StreamChunk struct {
	Nodes []tree.NodeID `json:"nodes"`
	Paths []string      `json:"paths,omitempty"`
}

// StreamTrailer is the last NDJSON line. A stream that ends without a
// trailer was truncated (the connection failed mid-stream); clients
// must treat the trailer, not EOF, as the completion signal. Cursor
// resumes a stream that a Limit cut short. Err is reserved for future
// in-band failures — today evaluation completes before the header is
// written, so nothing can fail in-band.
type StreamTrailer struct {
	Done      bool   `json:"done"`
	Chunks    int    `json:"chunks"`
	Nodes     int    `json:"nodes"`
	Cursor    string `json:"cursor,omitempty"`
	ElapsedUS int64  `json:"elapsed_us"`
	Err       string `json:"error,omitempty"`
	// Explain carries the span-tree profile when the request asked for
	// one; in a stream it rides the trailer (the header is written
	// before the stream phase has happened).
	Explain *obsv.Profile `json:"explain,omitempty"`
}

// Stream evaluates req and writes the answer to w as NDJSON
// (header, chunks of chunkSize nodes, trailer), flushing after every
// line when w implements http.Flusher. Limit and Cursor page exactly
// like Eval. When the request cannot start (bad strategy, unknown
// document, stale cursor, parse error) nothing is written and the
// failed Response is returned for the caller to deliver; once the
// header line is out the return is nil, and a write failure (client
// gone) truncates the stream — the missing trailer is the signal. A
// panic is contained like Eval's: before the header it returns the
// failed Response (HTTP 500), after it the stream is truncated.
func (s *Service) Stream(w io.Writer, req Request, chunkSize int) (pre *Response) {
	if chunkSize <= 0 {
		chunkSize = DefaultStreamChunk
	}
	st := evalState{streamed: true}
	headerOut := false
	defer func() {
		if v := recover(); v != nil {
			s.contain(&st, &req, v)
			if !headerOut {
				pre = &st.resp
			}
		}
	}()
	if !s.prepare(&st, req) {
		s.deliver(&st, &req, "")
		return &st.resp
	}
	// Recycle the evaluation context on every exit path, including
	// client-gone truncations and limit-cut pages.
	defer st.cur.Close()
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)

	writeLine := func(v any) bool {
		if err := enc.Encode(v); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	spStream := st.tr.Begin(obsv.SpanStream)
	header := StreamHeader{
		Doc:      req.Doc,
		Query:    req.Query,
		Strategy: st.resp.Strategy,
		Gen:      st.resp.Gen,
		Count:    st.resp.Count,
		Visited:  st.resp.Visited,
	}
	headerOut = true
	if !writeLine(header) {
		// Client gone before the header. The evaluation still ran, so
		// the query counters must see it (deliver), and the stream is
		// counted — with its abort cause — but kept out of the latency
		// aggregates, whose means are per-completed-stream.
		s.metrics.recordStream(abortHeaderWrite, 0, 0, 0, 0, 0)
		s.deliver(&st, &req, "client gone: header write failed")
		return nil
	}
	// First byte is measured after the header's encode+write+flush: it
	// is the time until the client actually has data, not until the
	// server was ready to produce it.
	firstByteUS := st.timer.elapsedMicros()

	limit := req.Limit
	if limit <= 0 {
		limit = st.resp.Count
	}
	var (
		buf        = make([]tree.NodeID, chunkSize)
		chunks     int
		chunkSumUS int64
		chunkMaxUS int64
	)
	for st.sent < limit {
		want := len(buf)
		if rem := limit - st.sent; rem < want {
			want = rem
		}
		n := st.cur.NextBatch(buf[:want])
		if n == 0 {
			break
		}
		chunk := StreamChunk{Nodes: buf[:n]}
		if req.Paths {
			chunk.Paths = make([]string, n)
			for i, v := range buf[:n] {
				chunk.Paths[i] = st.h.Doc.Path(v)
			}
		}
		t := startTimer()
		ok := writeLine(chunk)
		us := t.elapsedMicros()
		chunkSumUS += us
		if us > chunkMaxUS {
			chunkMaxUS = us
		}
		if !ok {
			// Client went away mid-stream: account for the chunks that
			// did go out.
			s.metrics.recordStream(abortChunkWrite, chunks, st.sent, firstByteUS, chunkSumUS, chunkMaxUS)
			s.deliver(&st, &req, "client gone: chunk write failed")
			return nil
		}
		st.sent += n
		chunks++
		st.last = buf[n-1]
	}
	st.tr.End(spStream)
	s.metrics.recordStream(abortNone, chunks, st.sent, firstByteUS, chunkSumUS, chunkMaxUS)
	// deliver settles the request before the trailer goes out: the
	// trailer carries the token it issued and the profile it closed.
	s.deliver(&st, &req, "")
	writeLine(StreamTrailer{
		Done:      true,
		Chunks:    chunks,
		Nodes:     st.sent,
		Cursor:    st.resp.Next,
		ElapsedUS: st.resp.ElapsedUS,
		Explain:   st.resp.Explain,
	})
	return nil
}
