package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection that carries one request
// at a time and stamps the arrival of the first and the last response
// byte. It renders requests by hand into a reused buffer and keeps the
// response body in another, so the driver's own cost per request stays
// small next to the daemon's.
type conn struct {
	addr    string
	timeout time.Duration
	c       net.Conn
	br      *bufio.Reader
	wbuf    []byte
	body    []byte
}

func newConn(addr string, timeout time.Duration) *conn {
	return &conn{addr: addr, timeout: timeout}
}

func (c *conn) close() {
	if c.c != nil {
		_ = c.c.Close() // nothing buffered to lose: every request was answered or abandoned
		c.c = nil
	}
}

// reply is one response. body aliases the connection's buffer and is
// valid until the next roundTrip.
type reply struct {
	status      int
	body        []byte
	first, last time.Time
}

// roundTrip sends one request and reads the whole response. Any error
// (dial, timeout, malformed response) closes the connection, so the
// next call starts clean.
func (c *conn) roundTrip(method, path string, body []byte) (reply, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, c.timeout)
		if err != nil {
			return reply{}, err
		}
		c.c = nc
		c.br = bufio.NewReaderSize(nc, 64<<10)
	}
	rep, err := c.exchange(method, path, body)
	if err != nil {
		c.close()
	}
	return rep, err
}

func (c *conn) exchange(method, path string, body []byte) (reply, error) {
	w := c.wbuf[:0]
	w = append(w, method...)
	w = append(w, ' ')
	w = append(w, path...)
	w = append(w, " HTTP/1.1\r\nHost: xpqd\r\nContent-Type: application/json\r\nContent-Length: "...)
	w = strconv.AppendInt(w, int64(len(body)), 10)
	w = append(w, "\r\n\r\n"...)
	w = append(w, body...)
	c.wbuf = w
	if err := c.c.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return reply{}, err
	}
	if _, err := c.c.Write(w); err != nil {
		return reply{}, err
	}
	if _, err := c.br.Peek(1); err != nil {
		return reply{}, err
	}
	var rep reply
	rep.first = time.Now()
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return reply{}, err
	}
	c.body, err = readInto(c.body[:0], resp.Body)
	rep.last = time.Now()
	resp.Body.Close()
	if err != nil {
		return reply{}, fmt.Errorf("reading response body: %w", err)
	}
	if resp.Close {
		c.close()
	}
	rep.status, rep.body = resp.StatusCode, c.body
	return rep, nil
}

// readInto appends everything r yields to buf.
func readInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// The scanners below read the few fields the driver checks out of the
// daemon's JSON without decoding the node list — on bulk-stream one
// reply carries over a hundred thousand ids, and a full decode would
// make the driver the bottleneck. They rely on the field order of the
// daemon's encoder; the pre-check decodes every distinct answer in full
// with encoding/json, so a drifted wire format fails there first.

// intField returns the integer after the first occurrence of key
// (`"name":`) in b at or after from, and the offset just past it.
func intField(b []byte, key string, from int) (v int64, end int, ok bool) {
	i := bytes.Index(b[from:], []byte(key))
	if i < 0 {
		return 0, 0, false
	}
	j := from + i + len(key)
	k := j
	for k < len(b) && b[k] >= '0' && b[k] <= '9' {
		k++
	}
	if k == j {
		return 0, 0, false
	}
	v, err := strconv.ParseInt(string(b[j:k]), 10, 64)
	return v, k, err == nil
}

// arrayLen counts the elements of the flat number array that starts at
// b[open] == '[' and returns the offset just past its ']'.
func arrayLen(b []byte, open int) (n, end int, ok bool) {
	closeAt := bytes.IndexByte(b[open:], ']')
	if closeAt < 0 {
		return 0, 0, false
	}
	inner := b[open+1 : open+closeAt]
	if len(inner) == 0 {
		return 0, open + closeAt + 1, true
	}
	return bytes.Count(inner, []byte{','}) + 1, open + closeAt + 1, true
}

// answer is what the driver reads from one query reply.
type answer struct {
	gen   uint64 // identity only: generations are opaque tokens
	count int    // full cardinality of the answer
	nodes int    // node ids carried by this reply
	next  []byte // continuation token, aliasing the reply body; nil when exhausted
}

// scanQueryReply reads a POST /query response body.
func scanQueryReply(b []byte) (a answer, ok bool) {
	// Skip the echoed query text: field names are matched after it.
	from := bytes.Index(b, []byte(`,"strategy":`))
	if from < 0 {
		return a, false
	}
	gen, at, ok := intField(b, `,"gen":`, from)
	if !ok {
		return a, false
	}
	count, at, ok := intField(b, `,"count":`, at)
	if !ok {
		return a, false
	}
	open := bytes.Index(b[at:], []byte(`,"nodes":[`))
	if open < 0 {
		return a, false
	}
	n, at, ok := arrayLen(b, at+open+len(`,"nodes":[`)-1)
	if !ok {
		return a, false
	}
	a = answer{gen: uint64(gen), count: int(count), nodes: n}
	if i := bytes.Index(b[at:], []byte(`,"next":"`)); i >= 0 {
		tok := b[at+i+len(`,"next":"`):]
		j := bytes.IndexByte(tok, '"')
		if j < 0 {
			return a, false
		}
		a.next = tok[:j]
	}
	return a, true
}

// scanStreamReply reads a POST /query/stream NDJSON body: a header
// line, chunk lines, and a trailer that must say done with a node total
// equal to what the chunks carried. A stream without its trailer was
// truncated.
func scanStreamReply(b []byte) (a answer, ok bool) {
	line, rest, found := bytes.Cut(b, []byte{'\n'})
	if !found {
		return a, false
	}
	from := bytes.Index(line, []byte(`,"strategy":`))
	if from < 0 {
		return a, false
	}
	gen, at, ok := intField(line, `,"gen":`, from)
	if !ok {
		return a, false
	}
	count, _, ok := intField(line, `,"count":`, at)
	if !ok {
		return a, false
	}
	a = answer{gen: uint64(gen), count: int(count)}
	for {
		line, rest, found = bytes.Cut(rest, []byte{'\n'})
		if !found {
			return a, false // no trailer
		}
		if bytes.HasPrefix(line, []byte(`{"nodes":[`)) {
			n, _, ok := arrayLen(line, len(`{"nodes":[`)-1)
			if !ok {
				return a, false
			}
			a.nodes += n
			continue
		}
		if !bytes.HasPrefix(line, []byte(`{"done":true,`)) {
			return a, false
		}
		total, _, ok := intField(line, `,"nodes":`, 0)
		return a, ok && int(total) == a.nodes && len(rest) == 0
	}
}

// scanPatchReply reads a PATCH /docs/{id} response body (the new
// generation's store.Stats).
func scanPatchReply(b []byte) (gen uint64, nodes int, ok bool) {
	g, at, ok := intField(b, `,"gen":`, 0)
	if !ok {
		return 0, 0, false
	}
	n, _, ok := intField(b, `,"nodes":`, at)
	return uint64(g), int(n), ok
}
