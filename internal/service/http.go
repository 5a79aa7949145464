package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/store"
)

// HTTP/JSON surface of the service, mounted by cmd/xpqd and exercised
// directly (via httptest) in tests:
//
//	POST   /query          Request           -> Response (limit/cursor paged)
//	POST   /query/stream   Request           -> NDJSON: header, chunks, trailer
//	POST   /batch   BatchRequest             -> BatchResponse
//	GET    /docs                             -> documents
//	POST   /docs    LoadRequest              -> store.Stats
//	PATCH  /docs/{id}  PatchDocRequest       -> store.Stats (the new generation)
//	DELETE /docs/{id}                        -> 204
//	GET    /stats                            -> Stats
//	GET    /metrics                          -> Prometheus text exposition
//	GET    /debug/queries                    -> flight recorder (?n=, ?slow=1)
//	GET    /healthz                          -> 200 "ok"
//	GET    /debug/pprof/...                  -> pprof (opt-in via EnablePprof)
//
// The query endpoints accept ?explain=1 (or "explain": true in the
// body) to attach an EXPLAIN-ANALYZE span-tree profile to the response
// (for streams, to the trailer), and ?asof=<gen> (or "asof" in the
// body) to pin the query to one MVCC generation of the document. Every query request is tagged with a
// request id — X-Request-Id when the client sent one of at most 128
// bytes of visible ASCII, generated otherwise — echoed in the response headers, the explain profile, the
// flight records and the logs. The bodies of /query, /query/stream and
// /batch are capped at maxQueryBody, PATCH bodies at maxPatchBody; a
// longer one is answered 413.

// BatchRequest is the body of POST /batch.
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// BatchResponse is the reply of POST /batch.
type BatchResponse struct {
	Responses []Response `json:"responses"`
}

// LoadRequest is the body of POST /docs; exactly one source field must
// be set.
type LoadRequest struct {
	ID string `json:"id"`
	// XML is inline document text.
	XML string `json:"xml,omitempty"`
	// File is a server-side XML file path.
	File string `json:"file,omitempty"`
	// XMarkScale generates a document instead of loading one.
	XMarkScale float64 `json:"xmark_scale,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// HandlerOptions configures the HTTP surface.
type HandlerOptions struct {
	// AllowFileLoads permits POST /docs to read server-side paths
	// (LoadRequest.File). Off by default: an exposed
	// daemon must not hand out arbitrary readable files as queryable
	// documents.
	AllowFileLoads bool
	// StreamChunk is the nodes-per-chunk size of /query/stream
	// responses; <= 0 means DefaultStreamChunk.
	StreamChunk int
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints leak internals and cost CPU, so an
	// exposed daemon opts in explicitly (-pprof).
	EnablePprof bool
}

// reqSeq numbers generated request ids within this process.
var reqSeq atomic.Uint64

// ridEpoch distinguishes restarts, so generated ids don't collide
// across process lifetimes in one log stream.
var ridEpoch = uint64(time.Now().UnixNano())

// maxRequestID is the longest client X-Request-Id kept. The id is
// echoed, logged on every line and held by each flight record, and
// net/http admits a header of up to 1 MiB.
const maxRequestID = 128

// ensureRequestID returns the client's X-Request-Id, or a generated one
// in place of none, of one over maxRequestID bytes or of one holding a
// byte outside visible ASCII, and echoes it on the response.
func ensureRequestID(w http.ResponseWriter, r *http.Request) string {
	rid := r.Header.Get("X-Request-Id")
	if rid == "" || len(rid) > maxRequestID || strings.ContainsFunc(rid, func(c rune) bool { return c < 0x21 || c > 0x7e }) {
		rid = "q-" + strconv.FormatUint(ridEpoch&0xffffff, 16) + "-" + strconv.FormatUint(reqSeq.Add(1), 16)
	}
	w.Header().Set("X-Request-Id", rid)
	return rid
}

// queryBool reads a boolean query parameter (?explain=, ?slow=): 1,
// true and yes are true, anything else false.
func queryBool(params url.Values, name string) bool {
	switch params.Get(name) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// queryParams merges the query string of /query and /query/stream into
// the decoded request body, parsing it once and, when it is empty, as on
// nearly every request, not at all: ?explain= sets Explain, and
// ?asof=<gen> sets AsOf (the parameter wins when both are set). A
// malformed generation reports false, and the caller has answered 400.
func queryParams(w http.ResponseWriter, r *http.Request, req *Request) bool {
	var params url.Values
	if r.URL.RawQuery != "" {
		params = r.URL.Query()
	}
	req.Explain = req.Explain || queryBool(params, "explain")
	raw := params.Get("asof")
	if raw == "" {
		return true
	}
	gen, err := store.ParseGen(raw)
	if err != nil || gen == store.NoGen {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad asof: want a generation number"})
		return false
	}
	req.AsOf = gen
	return true
}

// DefaultStreamWriteTimeout bounds each chunk write of /query/stream, so
// a reader that stops consuming cannot pin the handler goroutine (and
// the pinned evaluation state) forever. It is deliberately per write,
// not per stream: arbitrarily long streams to live readers are fine.
const DefaultStreamWriteTimeout = 30 * time.Second

// deadlineWriter arms a fresh write deadline before every write; a
// stalled reader makes the blocked write fail with a timeout, which
// truncates the stream (the missing trailer tells the client).
type deadlineWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

func (dw *deadlineWriter) Write(p []byte) (int, error) {
	_ = dw.rc.SetWriteDeadline(time.Now().Add(DefaultStreamWriteTimeout))
	return dw.w.Write(p)
}

// Flush implements http.Flusher so Stream keeps flushing per chunk.
func (dw *deadlineWriter) Flush() { _ = dw.rc.Flush() }

// NewHandler mounts the service's HTTP API on a fresh mux.
func NewHandler(s *Service, opts HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if !decodeQuery(w, r, &req) {
			return
		}
		req.RequestID = ensureRequestID(w, r)
		if !queryParams(w, r, &req) {
			return
		}
		resp := s.Eval(req)
		writeJSON(w, statusFor(resp), resp)
	})
	mux.HandleFunc("POST /query/stream", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if !decodeQuery(w, r, &req) {
			return
		}
		req.RequestID = ensureRequestID(w, r)
		if !queryParams(w, r, &req) {
			return
		}
		// The content type goes out with the first flush; from then on
		// the response is committed and a failure truncates the stream.
		w.Header().Set("Content-Type", "application/x-ndjson")
		dw := &deadlineWriter{w: w, rc: http.NewResponseController(w)}
		pre := s.Stream(dw, req, opts.StreamChunk)
		// Clear the armed deadline so it cannot leak into the next
		// request on a kept-alive connection.
		_ = dw.rc.SetWriteDeadline(time.Time{})
		if pre != nil {
			w.Header().Set("Content-Type", "application/json")
			writeJSON(w, statusFor(*pre), pre)
		}
	})
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if !decodeQuery(w, r, &req) {
			return
		}
		// Sub-requests share the batch's request id, suffixed with
		// their index, so one batch is one greppable log prefix.
		rid := ensureRequestID(w, r)
		for i := range req.Requests {
			req.Requests[i].RequestID = rid + "." + strconv.Itoa(i)
		}
		// Per-request failures ride in each Response.Err; the batch is 200.
		writeJSON(w, http.StatusOK, BatchResponse{Responses: s.EvalBatch(req.Requests)})
	})
	mux.HandleFunc("GET /docs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"documents": s.Store().List()})
	})
	mux.HandleFunc("POST /docs", func(w http.ResponseWriter, r *http.Request) {
		var req LoadRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if !opts.AllowFileLoads && req.File != "" {
			writeJSON(w, http.StatusForbidden,
				errorBody{Error: "server-side file loads are disabled (start the daemon with -allow-file-loads)"})
			return
		}
		h, err := loadDoc(s, req)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, store.ErrExists) {
				code = http.StatusConflict
			}
			writeJSON(w, code, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusCreated, h.Stats)
	})
	mux.HandleFunc("PATCH /docs/{id}", func(w http.ResponseWriter, r *http.Request) {
		var req PatchDocRequest
		r.Body = http.MaxBytesReader(w, r.Body, maxPatchBody)
		if !decodeJSON(w, r, &req) {
			return
		}
		st, err := s.PatchDoc(r.PathValue("id"), req)
		if err != nil {
			code := http.StatusBadRequest
			switch {
			case errors.Is(err, store.ErrNotFound):
				code = http.StatusNotFound
			case errors.Is(err, store.ErrConflict):
				code = http.StatusConflict
			}
			writeJSON(w, code, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /docs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !s.EvictDoc(r.PathValue("id")) {
			writeJSON(w, http.StatusNotFound, errorBody{Error: "no such document"})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.WriteMetrics(w)
	})
	mux.HandleFunc("GET /debug/queries", func(w http.ResponseWriter, r *http.Request) {
		params := r.URL.Query()
		limit, _ := strconv.Atoi(params.Get("n"))
		writeJSON(w, http.StatusOK, s.Flight().Snapshot(limit, queryBool(params, "slow")))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if opts.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func loadDoc(s *Service, req LoadRequest) (*store.Handle, error) {
	sources := 0
	for _, set := range []bool{req.XML != "", req.File != "", req.XMarkScale != 0} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("exactly one of xml, file, xmark_scale required")
	}
	switch {
	case req.XML != "":
		return s.Store().LoadXML(req.ID, []byte(req.XML))
	case req.File != "":
		return s.Store().LoadXMLFile(req.ID, req.File)
	default:
		return s.Store().GenerateXMark(req.ID, req.XMarkScale, req.Seed)
	}
}

// statusFor maps an Eval outcome to an HTTP status: unknown documents
// are 404, stale cursors (document reloaded under the token) are 410, a
// contained panic is 500, every other error (parse errors, fragment
// violations) is 400.
func statusFor(resp Response) int {
	switch resp.outcome {
	case obsv.OutcomePanic:
		return http.StatusInternalServerError
	case obsv.OutcomeNotFound:
		return http.StatusNotFound
	case obsv.OutcomeStaleCursor:
		return http.StatusGone
	case obsv.OutcomeError:
		return http.StatusBadRequest
	}
	return http.StatusOK
}

// maxQueryBody caps the bodies of /query, /query/stream and /batch. A
// query is a few hundred bytes; a megabyte holds a batch of thousands.
const maxQueryBody = 1 << 20

// maxPatchBody caps a PATCH body: one fragment of XML, escaped into
// JSON. POST /docs loads whole documents and is not capped.
const maxPatchBody = 8 << 20

// decodeQuery is decodeJSON over a body capped at maxQueryBody.
func decodeQuery(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxQueryBody)
	return decodeJSON(w, r, dst)
}

// errTrailingData refuses a body with a second JSON value, which would
// otherwise be silently dropped.
var errTrailingData = errors.New("trailing data after the JSON value")

// decodeJSON decodes the request body into dst, answering 400 for a
// malformed body or anything but whitespace after its one value, and
// 413 for one past its cap.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		// A second token, or bytes that cannot start one, is an error;
		// the end of the body is not.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errTrailingData
		}
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorBody{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
