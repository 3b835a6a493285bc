package httpd

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The keep-alive loop behind Server.Serve. It owns the HTTP/1.1
// framing of simply framed requests: one read fills a connection's
// buffer, the request line and the few headers the handlers read are
// parsed in place, every route runs through s.mux with a pooled
// request and response writer, and the response (head and body) leaves
// in one Write. A request off that shape hands its connection, with
// the bytes already buffered, to a net/http.Server for good; see
// (*conn).parse for the shape.

const (
	// connBufSize is a connection's read buffer. A request head must
	// fit in it whole, or the connection is handed to net/http.
	connBufSize = 16 << 10
	// maxDiscard is the most unread request body the loop reads and
	// drops after a handler to keep a connection (net/http's
	// maxPostHandlerReadBytes); a larger remainder closes it.
	maxDiscard = 256 << 10
	// maxKeptBuf caps the response buffers a connection keeps between
	// requests, so one large stats or profile body is not pinned.
	maxKeptBuf = 64 << 10
	// lingerDelay is how long a connection closed with request bytes
	// unread waits after its half-close, so the client reads the
	// response before the reset the unread bytes provoke (net/http's
	// rstAvoidanceDelay).
	lingerDelay = 500 * time.Millisecond
)

// aLongTimeAgo is a read deadline in the past: it wakes a blocked read.
var aLongTimeAgo = time.Unix(1, 0)

// loop is one Serve call's connection set.
type loop struct {
	s       *Server
	handoff *handoffListener
	closing atomic.Bool

	mu    sync.Mutex
	conns map[*conn]struct{} // guarded by mu, as is each conn's idle flag
	wg    sync.WaitGroup     // one count per conn goroutine
}

// accept serves ln until it fails or the loop starts closing (nil).
// Temporary accept errors back off and retry, as net/http does.
func (l *loop) accept(ln net.Listener) error {
	var delay time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if l.closing.Load() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() { //nolint:staticcheck // net/http's retry rule
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		c := newConn(l, nc)
		l.mu.Lock()
		if l.closing.Load() {
			l.mu.Unlock()
			nc.Close()
			continue
		}
		l.conns[c] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go c.serve()
	}
}

// setIdle moves c between waiting for a request (idle: shutdown may
// close it) and serving one. It reports false once the loop is
// closing: the connection then ends instead.
func (l *loop) setIdle(c *conn, idle bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closing.Load() {
		return false
	}
	c.idle = idle
	return true
}

// shutdown closes the idle connections and waits, until ctx ends, for
// the others to finish the request they serve. The caller has set
// closing and stopped accept.
func (l *loop) shutdown(ctx context.Context) error {
	l.mu.Lock()
	for c := range l.conns {
		if c.idle {
			c.nc.Close()
		}
	}
	l.mu.Unlock()
	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		l.closeAll()
		return ctx.Err()
	}
}

// closeAll closes every connection the loop holds, in flight or not.
func (l *loop) closeAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for c := range l.conns {
		c.nc.Close()
	}
}

// handoffListener feeds connections the loop hands off to the
// net/http.Server that serves them.
type handoffListener struct {
	addr   net.Addr
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newHandoffListener(addr net.Addr) *handoffListener {
	return &handoffListener{addr: addr, conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *handoffListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *handoffListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *handoffListener) Addr() net.Addr { return l.addr }

// send passes nc to net/http; false once the listener is closed.
func (l *handoffListener) send(nc net.Conn) bool {
	select {
	case l.conns <- nc:
		return true
	case <-l.closed:
		return false
	}
}

// prefixConn replays the bytes the loop had buffered before net/http
// reads from the connection itself.
type prefixConn struct {
	net.Conn
	pending []byte
}

func (c *prefixConn) Read(p []byte) (int, error) {
	if len(c.pending) > 0 {
		n := copy(p, c.pending)
		c.pending = c.pending[n:]
		return n, nil
	}
	return c.Conn.Read(p)
}

// conn is one loop connection. Everything a request needs is reused
// from one request to the next, so a keep-alive request allocates
// nothing the handler does not.
type conn struct {
	l      *loop
	nc     net.Conn
	remote string
	idle   bool // guarded by l.mu

	buf  []byte // read buffer; the unread bytes are buf[r:w]
	r, w int

	tmpl  http.Request // the zero request carrying ctx; req restarts from it
	req   http.Request
	url   url.URL
	hdr   http.Header                 // the request headers handlers read
	vals  [len(loopHeaders)][1]string // their values
	host  string                      // the last Host and target, kept while the bytes repeat
	path  string
	body  body
	ctx   reqCtx
	rw    respWriter
	close bool // end the connection after this response
	skip  int  // CR or LF bytes still dropped before the next request

	dateSec int64 // the second date holds, as an HTTP date
	date    []byte
}

// The request headers a handler can read through the loop, in the
// order of conn.vals.
var loopHeaders = [...]string{"Content-Type", "Accept", "X-Deadline-Ms"}

func newConn(l *loop, nc net.Conn) *conn {
	c := &conn{l: l, nc: nc, remote: nc.RemoteAddr().String(), buf: make([]byte, connBufSize), hdr: make(http.Header, len(loopHeaders))}
	c.ctx.c = c
	c.body.c = c
	c.rw = respWriter{c: c, hdr: make(http.Header)}
	c.tmpl = *new(http.Request).WithContext(&c.ctx)
	return c
}

// serve runs the connection's request loop until it closes or is
// handed off. A handler panic ends only this connection, as in
// net/http.
func (c *conn) serve() {
	handed := false
	defer func() {
		if err := recover(); err != nil && err != http.ErrAbortHandler {
			log.Printf("httpd: panic serving %s: %v\n%s", c.remote, err, debug.Stack())
		}
		c.l.mu.Lock()
		delete(c.l.conns, c)
		c.l.mu.Unlock()
		if !handed {
			c.nc.Close()
		}
		c.l.wg.Done()
	}()
	for {
		// After a POST, net/http drops up to four CR or LF bytes that
		// a client sent after the body; so does the loop, byte by byte
		// as they arrive, until another byte shows up.
		for c.skip > 0 && c.r < c.w && (c.buf[c.r] == '\r' || c.buf[c.r] == '\n') {
			c.r++
			c.skip--
		}
		if c.r < c.w {
			c.skip = 0
		}
		if c.r == c.w {
			// Idle: wait for the next request without a deadline.
			c.r, c.w = 0, 0
			if !c.l.setIdle(c, true) {
				return
			}
			err := c.fill(true)
			if !c.l.setIdle(c, false) || err != nil {
				return
			}
			continue
		}
		if c.l.closing.Load() {
			return
		}
		// The whole-request read timeout: head and body must be in
		// by then. Later reads of this request keep the deadline.
		c.nc.SetReadDeadline(time.Now().Add(readTimeout)) //nolint:errcheck // a failed deadline fails the read
		end := 0
		for {
			var ok bool
			if end, ok = headEnd(c.buf[c.r:c.w]); !ok {
				handed = c.handOff()
				return
			}
			if end > 0 {
				break
			}
			if c.r > 0 {
				c.w = copy(c.buf, c.buf[c.r:c.w])
				c.r = 0
			}
			if c.w == len(c.buf) {
				handed = c.handOff()
				return
			}
			if c.fill(false) != nil {
				return // a stalled or broken head: just close
			}
		}
		if !c.parse(c.buf[c.r : c.r+end]) {
			handed = c.handOff()
			return
		}
		c.r += end
		if !c.serveRequest() {
			return
		}
		if c.req.Method == http.MethodPost {
			c.skip = 4
		}
	}
}

// fill reads more bytes into the buffer. An idle wait ignores the
// deadline the last request left: on its timeout it clears it and
// keeps waiting, so idle keep-alive connections stay open at the cost
// of one deadline update per request.
func (c *conn) fill(idle bool) error {
	for {
		n, err := c.nc.Read(c.buf[c.w:])
		c.w += n
		if n > 0 {
			return nil
		}
		if idle && isTimeout(err) {
			c.nc.SetReadDeadline(time.Time{}) //nolint:errcheck // a failed deadline fails the read
			continue
		}
		if err != nil {
			return err
		}
	}
}

// isTimeout reports a read that hit its deadline; net.Conn errors wrap
// os.ErrDeadlineExceeded for it.
func isTimeout(err error) bool { return errors.Is(err, os.ErrDeadlineExceeded) }

// handOff passes the connection, and every byte buffered from its
// current request on, to the net/http.Server. It reports whether
// net/http took it.
func (c *conn) handOff() bool {
	pending := slices.Clone(c.buf[c.r:c.w])
	return c.l.handoff.send(&prefixConn{Conn: c.nc, pending: pending})
}

// headEnd returns the length of the request head at the start of b —
// CRLF-terminated lines up to the first empty one — or 0 when b holds
// no complete head yet. ok is false for a bare LF, which only net/http
// parses.
func headEnd(b []byte) (end int, ok bool) {
	for i := 0; ; {
		j := bytes.IndexByte(b[i:], '\n')
		if j < 0 {
			return 0, true
		}
		j += i
		if j == 0 || b[j-1] != '\r' {
			return 0, false
		}
		if j-1 == i {
			return j + 1, true
		}
		i = j + 1
	}
}

// parse reads a complete request head into c.req. It accepts only the
// simple shape: an HTTP/1.1 request line with a GET, POST, PUT, PATCH
// or DELETE method and an origin-form target of path bytes (no query,
// no escapes); exactly one Host; at most one Content-Length of plain
// digits; no Transfer-Encoding and no Expect; a Connection of close or
// keep-alive; no repeated Content-Type, Accept or X-Deadline-Ms; no
// obs-fold; header names of token bytes and values of visible ASCII.
// Anything else reports false, and net/http serves the connection from
// this request on, so those inputs keep net/http's exact semantics.
func (c *conn) parse(head []byte) bool {
	line, rest := cutCRLF(head)
	var method string
	switch {
	case hasPrefix(line, "GET "):
		method = http.MethodGet
	case hasPrefix(line, "POST "):
		method = http.MethodPost
	case hasPrefix(line, "PUT "):
		method = http.MethodPut
	case hasPrefix(line, "PATCH "):
		method = http.MethodPatch
	case hasPrefix(line, "DELETE "):
		method = http.MethodDelete
	default:
		return false
	}
	target := line[len(method)+1:]
	const proto = " HTTP/1.1"
	if len(target) <= len(proto) || string(target[len(target)-len(proto):]) != proto {
		return false
	}
	target = target[:len(target)-len(proto)]
	if target[0] != '/' {
		return false
	}
	for _, b := range target {
		if !isPathByte(b) {
			return false
		}
	}

	clear(c.hdr)
	var (
		hosts, lengths int
		seen           [len(loopHeaders)]bool
		n              int64
	)
	c.close = false
	for len(rest) > 2 { // the final empty line is "\r\n"
		line, rest = cutCRLF(rest)
		colon := -1
		for i, b := range line {
			if b == ':' {
				colon = i
				break
			}
			if !isTokenByte(b) {
				return false // obs-fold, a space before the colon, a bad name byte
			}
		}
		if colon <= 0 {
			return false
		}
		name, value := line[:colon], bytes.Trim(line[colon+1:], " \t")
		for _, b := range value {
			if (b < ' ' && b != '\t') || b > '~' {
				return false
			}
		}
		switch {
		case foldEq(name, "host"):
			if hosts++; hosts > 1 || len(value) == 0 {
				return false
			}
			for _, b := range value {
				if !isHostByte(b) {
					return false
				}
			}
			if string(value) != c.host {
				c.host = string(value)
			}
		case foldEq(name, "content-length"):
			if lengths++; lengths > 1 || len(value) == 0 || len(value) > 18 {
				return false
			}
			n = 0
			for _, b := range value {
				if b < '0' || b > '9' {
					return false
				}
				n = n*10 + int64(b-'0')
			}
		case foldEq(name, "transfer-encoding"), foldEq(name, "expect"):
			return false
		case foldEq(name, "connection"):
			switch {
			case foldEq(value, "close"):
				c.close = true
			case foldEq(value, "keep-alive"):
			default:
				return false
			}
		default:
			for i, h := range loopHeaders {
				if !foldEq(name, h) {
					continue
				}
				if seen[i] {
					return false
				}
				seen[i] = true
				if v := &c.vals[i][0]; string(value) != *v {
					*v = headerValue(value)
				}
				c.hdr[h] = c.vals[i][:]
			}
		}
	}
	if hosts != 1 {
		return false
	}
	if string(target) != c.path {
		c.path = string(target)
	}

	c.req = c.tmpl
	c.url = url.URL{Path: c.path}
	c.req.Method = method
	c.req.URL = &c.url
	c.req.Proto, c.req.ProtoMajor, c.req.ProtoMinor = "HTTP/1.1", 1, 1
	c.req.Header = c.hdr
	c.req.Host = c.host
	c.req.RequestURI = c.path
	c.req.RemoteAddr = c.remote
	c.req.ContentLength = n
	c.req.Close = c.close
	c.req.Body = &c.body
	c.body.n, c.body.err = n, nil
	return true
}

// headerValue returns value as a string, without allocating for the
// two media types the codecs use.
func headerValue(value []byte) string {
	switch string(value) {
	case "application/json":
		return "application/json"
	case ContentTypeBinary:
		return ContentTypeBinary
	}
	return string(value)
}

// cutCRLF splits b after its first CRLF; the line excludes it.
func cutCRLF(b []byte) (line, rest []byte) {
	i := bytes.IndexByte(b, '\n')
	return b[:i-1], b[i+1:]
}

func hasPrefix(b []byte, p string) bool { return bytes.HasPrefix(b, []byte(p)) }

// foldEq reports whether b equals s under case folding; parse calls
// it on ASCII only, where this is ASCII case folding.
func foldEq(b []byte, s string) bool { return bytes.EqualFold(b, []byte(s)) }

// isTokenByte reports an RFC 9110 tchar.
func isTokenByte(b byte) bool {
	switch {
	case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		return true
	}
	switch b {
	case '!', '#', '$', '%', '&', '\'', '*', '+', '-', '.', '^', '_', '`', '|', '~':
		return true
	}
	return false
}

// isPathByte reports a byte url.URL keeps unescaped in a path, so the
// target is its own escaped path.
func isPathByte(b byte) bool {
	switch {
	case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		return true
	}
	switch b {
	case '-', '_', '.', '~', '$', '&', '+', ',', '/', ':', ';', '=', '@':
		return true
	}
	return false
}

// isHostByte reports a byte of a reg-name, IPv4 or bracketed IPv6 host
// with an optional port.
func isHostByte(b byte) bool {
	switch {
	case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		return true
	}
	switch b {
	case '-', '.', '_', ':', '[', ']':
		return true
	}
	return false
}

// serveRequest runs the parsed request through the mux and writes its
// response. It reports whether the connection stays open for the next
// request.
func (c *conn) serveRequest() bool {
	if c.body.n == 0 {
		c.bodyDone()
	}
	c.rw.status = 0
	c.l.s.mux.ServeHTTP(&c.rw, &c.req)
	if c.ctx.stop() {
		c.close = true // the client went away
	}
	// An unread body is read and dropped if small; otherwise, or if
	// its read failed, what remains on the wire is not a request. A
	// client still sending one gets the response before the close.
	linger := false
	if c.body.err != nil {
		c.close = true
	} else if c.body.n > maxDiscard {
		c.close, linger = true, true
	} else if c.body.n > 0 {
		if _, err := io.Copy(io.Discard, &c.body); err != nil {
			c.close = true
		}
	}
	c.close = c.close || c.l.closing.Load()
	if c.rw.flush(c.close) != nil {
		return false
	}
	if c.close && linger {
		if cw, ok := c.nc.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite() //nolint:errcheck // the connection closes next
			time.Sleep(lingerDelay)
		}
	}
	return !c.close
}

// body is the request body: the first n bytes after the head, read
// from the buffer, then straight from the connection into the
// caller's slice, never past the body's end.
type body struct {
	c   *conn
	n   int64 // bytes left
	err error // the read error that ended the body early
}

func (b *body) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	if b.n == 0 {
		return 0, io.EOF
	}
	c := b.c
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	var k int
	if c.r < c.w {
		k = copy(p, c.buf[c.r:c.w])
		c.r += k
	} else {
		var err error
		if k, err = c.nc.Read(p); err != nil && k == 0 {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			b.err = err
			return 0, err
		}
	}
	if b.n -= int64(k); b.n == 0 {
		c.bodyDone()
	}
	return k, nil
}

func (b *body) Close() error { return nil }

// bodyDone marks the request body consumed: the next byte on the wire
// now belongs to a later request or reports a disconnect, so the
// disconnect watcher may read it. The buffer first makes room for that
// byte behind whatever later requests it holds; a body that ended
// after its head can always shift them to the front.
func (c *conn) bodyDone() {
	if c.r == c.w {
		c.r, c.w = 0, 0
	} else if c.w == len(c.buf) {
		c.w = copy(c.buf, c.buf[c.r:c.w])
		c.r = 0
	}
	c.ctx.watchable.Store(true)
}

// reqCtx is a connection's request context, reset between requests.
// It is cancelled when the client disconnects, which only a read can
// see. The one-byte watcher read that does so starts lazily, on the
// first Done call, and only once the body is consumed (see bodyDone).
// Memo hits never call Done and so never start it; every analysis that
// runs does (service.run selects on it). A context derived from it
// registers through AfterFunc, so context.WithTimeout over it starts
// no goroutine of its own.
type reqCtx struct {
	c         *conn
	watchable atomic.Bool // the body is consumed
	canceled  atomic.Bool

	mu       sync.Mutex
	done     chan struct{} // made on the first Done; closed on disconnect
	afters   []func()      // AfterFunc callbacks of this request; nil once stopped
	gen      uint64        // counts requests, so a stale stop func finds nothing
	watching bool          // a watcher started for this request
	aborting bool          // the request is over: the watcher's timeout is ours
	watcher  sync.WaitGroup
	got      bool // the watcher read a byte of a later request
	b        [1]byte
}

func (x *reqCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (x *reqCtx) Value(any) any               { return nil }

func (x *reqCtx) Err() error {
	if x.canceled.Load() {
		return context.Canceled
	}
	return nil
}

func (x *reqCtx) Done() <-chan struct{} {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.done == nil {
		x.done = make(chan struct{})
	}
	if !x.watching && x.watchable.Load() {
		x.watching = true
		x.watcher.Add(1)
		go x.watch()
	}
	return x.done
}

// AfterFunc runs f in its own goroutine once the client disconnects,
// as context.AfterFunc would; the request's end drops f unrun. The
// returned stop reports whether it kept f from running.
func (x *reqCtx) AfterFunc(f func()) (stop func() bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.canceled.Load() {
		go f()
		return func() bool { return false }
	}
	gen, i := x.gen, len(x.afters)
	x.afters = append(x.afters, f)
	return func() bool {
		x.mu.Lock()
		defer x.mu.Unlock()
		if gen != x.gen || x.afters[i] == nil {
			return false
		}
		x.afters[i] = nil
		return true
	}
}

// watch reads one byte: part of a later request, or an error
// that means the client is gone. A timeout is either stop ending the
// watch or the request's read deadline passing while its analysis
// runs, which clears it and reads on.
func (x *reqCtx) watch() {
	defer x.watcher.Done()
	nc := x.c.nc
	for {
		n, err := nc.Read(x.b[:])
		if n == 1 {
			x.got = true
			return
		}
		if err == nil {
			continue
		}
		x.mu.Lock()
		if x.aborting {
			x.mu.Unlock()
			return
		}
		if isTimeout(err) {
			nc.SetReadDeadline(time.Time{}) //nolint:errcheck // a failed deadline fails the read
			x.mu.Unlock()
			continue
		}
		x.canceled.Store(true)
		close(x.done)
		for i, f := range x.afters {
			if f != nil {
				go f()
				x.afters[i] = nil
			}
		}
		x.mu.Unlock()
		return
	}
}

// stop ends the request's watcher, if one started, moves a byte it
// read into the buffer, and resets the context for the next request.
// It reports whether the client disconnected.
func (x *reqCtx) stop() bool {
	x.watchable.Store(false)
	x.mu.Lock()
	clear(x.afters)
	x.afters = x.afters[:0]
	x.gen++
	started := x.watching
	if started {
		x.aborting = true
		x.c.nc.SetReadDeadline(aLongTimeAgo) //nolint:errcheck // a failed deadline leaves the read to the close
	}
	x.mu.Unlock()
	if !started {
		return false
	}
	x.watcher.Wait()
	// The idle read that may follow wants no deadline; clearing it here
	// spares that read a failed round on the past one.
	x.c.nc.SetReadDeadline(time.Time{}) //nolint:errcheck // a failed deadline fails the read
	x.mu.Lock()
	x.watching, x.aborting = false, false
	x.mu.Unlock()
	if x.got {
		x.got = false
		c := x.c
		c.buf[c.w] = x.b[0]
		c.w++
	}
	return x.canceled.Load()
}

// respWriter buffers a handler's response and writes it, head and
// body, in one Write.
type respWriter struct {
	c      *conn
	hdr    http.Header
	status int // 0 until the handler sets or implies one
	body   []byte
	out    []byte
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 && code >= 200 {
		w.status = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// flush writes the response and resets the writer: the status line,
// Content-Type (sniffed when the handler set none, as net/http does),
// Date, Content-Length, Connection: close when the connection ends,
// any other header the handler set, then the body.
func (w *respWriter) flush(close bool) error {
	c := w.c
	status := w.status
	if status == 0 {
		status = http.StatusOK
	}
	b := w.out[:0]
	if status == http.StatusOK {
		b = append(b, "HTTP/1.1 200 OK\r\n"...)
	} else {
		b = append(b, "HTTP/1.1 "...)
		b = strconv.AppendInt(b, int64(status), 10)
		b = append(b, ' ')
		b = append(b, http.StatusText(status)...)
		b = append(b, "\r\n"...)
	}
	hasBody := status != http.StatusNoContent && status != http.StatusNotModified
	if hasBody {
		if ct := w.hdr["Content-Type"]; len(ct) > 0 {
			b = appendHeader(b, "Content-Type", ct[0])
		} else if len(w.body) > 0 {
			b = appendHeader(b, "Content-Type", http.DetectContentType(w.body))
		}
	}
	if now := time.Now(); now.Unix() != c.dateSec {
		c.dateSec = now.Unix()
		c.date = now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	b = append(b, "Date: "...)
	b = append(b, c.date...)
	b = append(b, "\r\n"...)
	if hasBody {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(w.body)), 10)
		b = append(b, "\r\n"...)
	}
	if close {
		b = append(b, "Connection: close\r\n"...)
	}
	if _, ok := w.hdr["Content-Type"]; len(w.hdr) > 1 || !ok && len(w.hdr) > 0 {
		b = w.appendOtherHeaders(b)
	}
	b = append(b, "\r\n"...)
	if hasBody {
		b = append(b, w.body...)
	}
	_, err := c.nc.Write(b)

	clear(w.hdr)
	w.status = 0
	w.body, w.out = w.body[:0], b[:0]
	if cap(w.body) > maxKeptBuf {
		w.body = nil
	}
	if cap(w.out) > maxKeptBuf {
		w.out = nil
	}
	return err
}

// appendOtherHeaders appends the headers flush does not write itself,
// sorted by name, skipping invalid names and turning CR and LF in
// values into spaces, as net/http does.
func (w *respWriter) appendOtherHeaders(b []byte) []byte {
	keys := make([]string, 0, len(w.hdr))
	for k := range w.hdr {
		switch k {
		case "Content-Type", "Content-Length", "Date", "Connection", "Transfer-Encoding":
			continue
		}
		valid := k != ""
		for i := 0; i < len(k) && valid; i++ {
			valid = isTokenByte(k[i])
		}
		if valid {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		for _, v := range w.hdr[k] {
			b = appendHeader(b, k, v)
		}
	}
	return b
}

func appendHeader(b []byte, name, value string) []byte {
	b = append(b, name...)
	b = append(b, ": "...)
	for i := 0; i < len(value); i++ {
		if x := value[i]; x == '\r' || x == '\n' {
			b = append(b, ' ')
		} else {
			b = append(b, x)
		}
	}
	return append(b, "\r\n"...)
}
