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
// answer is still being encoded. Writes go straight to the connection,
// so a slow reader throttles the producer (backpressure) instead of
// growing a buffer. A chunk is a window of the answer the cursor owns,
// so a slow reader holds that answer and nothing else: no chunk buffer,
// no evaluation context.

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
	Gen store.Gen `json:"gen,omitzero"`
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
// resumes a stream that a Limit cut short. Evaluation completes before
// the header is written, so nothing fails in-band.
type StreamTrailer struct {
	Done      bool   `json:"done"`
	Chunks    int    `json:"chunks"`
	Nodes     int    `json:"nodes"`
	Cursor    string `json:"cursor,omitempty"`
	ElapsedUS int64  `json:"elapsed_us"`
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
		s.deliver(&st, &req)
		return &st.resp
	}
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
	ok := writeLine(header)
	if !ok {
		// Client gone before the header. The evaluation still ran, so
		// it counts as a query, and the stream is counted with its abort
		// cause (finish).
		st.abort(abortHeaderWrite, "client gone: header write failed")
	}
	// First byte is measured after the header's encode+write+flush: it
	// is the time until the client actually has data, not until the
	// server was ready to produce it.
	st.tally.firstByteUS = st.timer.elapsedMicros()

	limit := req.Limit
	if limit <= 0 {
		limit = st.resp.Count
	}
	for ok && st.sent < limit {
		nodes := st.cur.Take(min(chunkSize, limit-st.sent))
		n := len(nodes)
		if n == 0 {
			break
		}
		chunk := StreamChunk{Nodes: nodes}
		if req.Paths {
			chunk.Paths = make([]string, n)
			for i, v := range nodes {
				chunk.Paths[i] = st.h.Doc.Path(v)
			}
		}
		t := startTimer()
		ok = writeLine(chunk)
		us := t.elapsedMicros()
		st.tally.chunkSumUS += us
		st.tally.chunkMaxUS = max(st.tally.chunkMaxUS, us)
		if !ok {
			// Client went away mid-stream: the chunks that did go out
			// are counted.
			st.abort(abortChunkWrite, "client gone: chunk write failed")
			break
		}
		st.sent += n
		st.tally.chunks++
		st.last = nodes[n-1]
	}
	st.tr.End(spStream)
	// The request settles before the trailer goes out, which carries the
	// token it issued and the profile it closed, and finishes after: a
	// panic in the trailer write is then contained and recorded once.
	s.settle(&st, &req)
	if ok {
		writeLine(StreamTrailer{
			Done:      true,
			Chunks:    st.tally.chunks,
			Nodes:     st.sent,
			Cursor:    st.resp.Next,
			ElapsedUS: st.resp.ElapsedUS,
			Explain:   st.resp.Explain,
		})
	}
	s.finish(&st, &req)
	return nil
}

// abort ends a stream whose client went away during the write cause
// names: the request's outcome is aborted and err says which write.
func (st *evalState) abort(cause abortCause, err string) {
	st.tally.abort = cause
	st.resp.outcome, st.resp.Err = obsv.OutcomeAborted, err
}
