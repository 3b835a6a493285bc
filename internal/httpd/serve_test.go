package httpd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"hsched/internal/analysis"
	"hsched/internal/experiments"
	"hsched/internal/gen"
	"hsched/internal/service"
	"hsched/internal/spec"
)

// startServe runs s.Serve on ln and returns a stop function that
// cancels Serve and returns its error.
func startServe(s *Server, ln net.Listener) func() error {
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln, nil) }()
	return func() error {
		cancel()
		return <-served
	}
}

// serveLoop runs s.Serve on a loopback port until the test ends, when
// Serve must drain cleanly, and returns the address.
func serveLoop(tb testing.TB, s *Server) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	stop := startServe(s, ln)
	tb.Cleanup(func() {
		if err := stop(); err != nil {
			tb.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// rawRequest assembles the wire bytes of one simply framed request.
func rawRequest(method, path, ctype, accept string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: test\r\n", method, path)
	if ctype != "" {
		fmt.Fprintf(&b, "Content-Type: %s\r\n", ctype)
	}
	if accept != "" {
		fmt.Fprintf(&b, "Accept: %s\r\n", accept)
	}
	fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n", len(body))
	b.Write(body)
	return b.Bytes()
}

// readResponse reads one response and its whole body.
func readResponse(t *testing.T, br *bufio.Reader) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response body: %v", err)
	}
	return resp, data
}

// hitBodies returns the paper example as a JSON and a binary analyze
// body.
func hitBodies(tb testing.TB) (jsonBody, binBody []byte) {
	tb.Helper()
	jsonBody, err := json.Marshal(&AnalyzeRequest{System: paperFile()})
	if err != nil {
		tb.Fatal(err)
	}
	binBody, err = EncodeAnalyzeRequestBinary(experiments.PaperSystem(), OptionsSpec{})
	if err != nil {
		tb.Fatal(err)
	}
	return jsonBody, binBody
}

// TestServePipelined: three requests in one Write — a JSON memo hit, a
// binary memo hit and GET /v1/stats — get three responses, in order.
func TestServePipelined(t *testing.T) {
	s := New(Options{})
	addr := serveLoop(t, s)
	jsonBody, binBody := hitBodies(t)
	jsonReq := rawRequest("POST", "/v1/analyze", "application/json", "", jsonBody)
	binReq := rawRequest("POST", "/v1/analyze", ContentTypeBinary, ContentTypeBinary, binBody)
	statsReq := []byte("GET /v1/stats HTTP/1.1\r\nHost: test\r\n\r\n")

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(nc)
	// Warm both codecs, so the pipelined pair are memo hits.
	for _, req := range [][]byte{jsonReq, binReq} {
		if _, err := nc.Write(req); err != nil {
			t.Fatal(err)
		}
		if resp, data := readResponse(t, br); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up: status %d: %s", resp.StatusCode, data)
		}
	}
	if _, err := nc.Write(bytes.Join([][]byte{jsonReq, binReq, statsReq}, nil)); err != nil {
		t.Fatal(err)
	}

	resp, data := readResponse(t, br)
	var ar AnalyzeResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &ar) != nil || !ar.Schedulable {
		t.Fatalf("first response: status %d: %s", resp.StatusCode, data)
	}
	resp, data = readResponse(t, br)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != ContentTypeBinary {
		t.Fatalf("second response: status %d, type %q: %q", resp.StatusCode, resp.Header.Get("Content-Type"), data)
	}
	if br, err := DecodeAnalyzeResponseBinary(data); err != nil || !br.Schedulable {
		t.Fatalf("second response: %+v, %v", br, err)
	}
	resp, data = readResponse(t, br)
	var st StatsResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &st) != nil {
		t.Fatalf("third response: status %d: %s", resp.StatusCode, data)
	}
	// The binary warm-up already found the system the JSON one interned.
	if st.ParseHits != 1 || st.BinaryHits != 2 || st.Service.Queries != 4 {
		t.Errorf("stats after the pipeline: parse_hits %d, binary_hits %d, queries %d; want 1, 2, 4",
			st.ParseHits, st.BinaryHits, st.Service.Queries)
	}
}

// TestServeConnectionClose: a request carrying Connection: close gets
// its response, marked Connection: close, and then the connection
// ends.
func TestServeConnectionClose(t *testing.T) {
	addr := serveLoop(t, New(Options{}))
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	io.WriteString(nc, "GET /v1/healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"+
		"GET /v1/healthz HTTP/1.1\r\nHost: test\r\n\r\n")
	br := bufio.NewReader(nc)
	resp, data := readResponse(t, br)
	if resp.StatusCode != http.StatusOK || !resp.Close {
		t.Fatalf("status %d, close %v: %s", resp.StatusCode, resp.Close, data)
	}
	if n, err := br.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("after Connection: close: read %d bytes, %v; want EOF", n, err)
	}
}

// TestServeHandOff: requests off the loop's simple shape — HTTP/1.0, a
// chunked body, a query string — are served by net/http with the
// same routes, and a later simple request on the handed-off
// connection is still answered.
func TestServeHandOff(t *testing.T) {
	s := New(Options{})
	addr := serveLoop(t, s)
	jsonBody, _ := hitBodies(t)
	chunked := fmt.Sprintf("POST /v1/analyze HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(jsonBody), jsonBody)
	for _, tc := range []struct {
		name, req string
	}{
		{"http/1.0", "POST /v1/analyze HTTP/1.0\r\nContent-Length: " + strconv.Itoa(len(jsonBody)) + "\r\n\r\n" + string(jsonBody)},
		{"chunked", chunked},
		{"query", string(rawRequest("POST", "/v1/analyze?x=1", "application/json", "", jsonBody))},
		{"expect", "POST /v1/analyze HTTP/1.1\r\nHost: test\r\nExpect: 100-continue\r\nContent-Length: " + strconv.Itoa(len(jsonBody)) + "\r\n\r\n" + string(jsonBody)},
	} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(30 * time.Second))
		io.WriteString(nc, tc.req+string(rawRequest("GET", "/v1/healthz", "", "", nil)))
		br := bufio.NewReader(nc)
		resp, data := readResponse(t, br)
		if resp.StatusCode == http.StatusContinue {
			resp, data = readResponse(t, br)
		}
		var ar AnalyzeResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &ar) != nil || !ar.Schedulable {
			t.Errorf("%s: status %d: %s", tc.name, resp.StatusCode, data)
		}
		if tc.name != "http/1.0" {
			if resp, data := readResponse(t, br); resp.StatusCode != http.StatusOK {
				t.Errorf("%s: next request: status %d: %s", tc.name, resp.StatusCode, data)
			}
		}
		nc.Close()
	}
}

// TestServeClientDisconnectCancels: closing the connection of a
// request whose analysis would run for minutes, with no deadline,
// cancels that analysis: its in-flight slot frees within 2 s, and the
// next request on its stripe (the service has one) is served. The
// padded body is larger than the loop's read buffer, so its end is
// read straight from the connection and leaves the buffer full.
func TestServeClientDisconnectCancels(t *testing.T) {
	// ROADMAP item 1's divergent system: the exact-search shape at seed
	// 8 with every priority equal, still iterating after 60 s under
	// default options.
	sys, err := gen.System(gen.Config{
		Seed: 8, Platforms: 1, Transactions: 3, ChainLen: 3,
		PeriodMin: 20, PeriodMax: 400, Utilization: 0.5, AlphaMin: 0.5, AlphaMax: 0.9,
		RandomPriorities: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sys.Transactions {
		for j := range sys.Transactions[i].Tasks {
			sys.Transactions[i].Tasks[j].Priority = 1
		}
	}
	body, err := json.Marshal(&AnalyzeRequest{System: spec.FromSystem(sys)})
	if err != nil {
		t.Fatal(err)
	}
	// An unknown key is skipped, so the padding leaves the system as is.
	padded := append([]byte(`{"pad":"`+strings.Repeat("x", 2*connBufSize)+`",`), body[1:]...)
	jsonBody, _ := hitBodies(t)
	for _, tc := range []struct {
		name string
		body []byte
	}{{"small", body}, {"over-buffer", padded}} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Options{Service: service.New(service.Options{Shards: 1})})
			addr := serveLoop(t, s)

			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := nc.Write(rawRequest("POST", "/v1/analyze", "application/json", "", tc.body)); err != nil {
				t.Fatal(err)
			}
			for i := 0; s.inflight.Load() == 0; i++ {
				if i > 5000 {
					t.Fatal("request never entered flight")
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(50 * time.Millisecond) // let the analysis get going
			nc.Close()
			for start := time.Now(); s.inflight.Load() != 0; time.Sleep(time.Millisecond) {
				if time.Since(start) > 2*time.Second {
					t.Fatal("analysis still in flight 2 s after its client disconnected")
				}
			}

			nc, err = net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := nc.Write(rawRequest("POST", "/v1/analyze", "application/json", "", jsonBody)); err != nil {
				t.Fatal(err)
			}
			if resp, data := readResponse(t, bufio.NewReader(nc)); resp.StatusCode != http.StatusOK {
				t.Fatalf("next request on the stripe: status %d: %s", resp.StatusCode, data)
			}
		})
	}
}

// rawClient is a keep-alive client that writes prepared request bytes
// and reads each response into a fixed buffer, allocating nothing, so
// an allocation count over a round trip is the server's.
type rawClient struct {
	nc  net.Conn
	buf []byte
}

// roundTrip sends req and returns the status and body of its
// response, which aliases the client's buffer.
func (c *rawClient) roundTrip(t *testing.T, req []byte) (int, []byte) {
	if _, err := c.nc.Write(req); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		k, err := c.nc.Read(c.buf[n:])
		n += k
		if end := bytes.Index(c.buf[:n], []byte("\r\n\r\n")); end >= 0 {
			head := c.buf[:end]
			i := bytes.Index(head, []byte("Content-Length: "))
			if i < 0 || len(head) < 12 {
				t.Fatalf("response head %q", head)
			}
			length := 0
			for _, b := range head[i+len("Content-Length: "):] {
				if b < '0' || b > '9' {
					break
				}
				length = length*10 + int(b-'0')
			}
			if n >= end+4+length {
				status := int(head[9]-'0')*100 + int(head[10]-'0')*10 + int(head[11]-'0')
				return status, c.buf[end+4 : end+4+length]
			}
		}
		if err != nil {
			t.Fatalf("reading response: %v", err)
		}
	}
}

// TestServeKeepAliveZeroAllocs locks the served hit path at zero
// allocations per request: on a warmed keep-alive loopback connection,
// a JSON parse-memo hit and a binary intern and memo hit on
// /v1/analyze go through the loop's framing, the mux and the handler
// and back without allocating. A JSON hit carrying X-Deadline-Ms adds
// what context.WithTimeout allocates over a plain cancel context and
// at most deadlineExtra more: over the loop's context it registers
// through AfterFunc (its callback, the stopCtx holding the stop func,
// and that func), and its Done starts the disconnect watcher (the
// goroutine's closure and the error of its aborted read). A fallback
// goroutine per deadline would cost one more.
func TestServeKeepAliveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc counts are meaningless")
	}
	const deadlineExtra = 5
	parent, cancelParent := context.WithCancel(context.Background())
	defer cancelParent()
	withTimeout := testing.AllocsPerRun(500, func() {
		_, cancel := context.WithTimeout(parent, time.Minute)
		cancel()
	})

	addr := serveLoop(t, New(Options{Service: service.New(service.Options{})}))
	jsonBody, binBody := hitBodies(t)
	jsonReq := rawRequest("POST", "/v1/analyze", "application/json", "", jsonBody)
	binReq := rawRequest("POST", "/v1/analyze", ContentTypeBinary, ContentTypeBinary, binBody)
	deadlineReq := bytes.Replace(jsonReq, []byte("Host: test\r\n"), []byte("Host: test\r\nX-Deadline-Ms: 60000\r\n"), 1)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(time.Minute))
	c := &rawClient{nc: nc, buf: make([]byte, 64<<10)}
	for _, tc := range []struct {
		name string
		req  []byte
		want float64
	}{{"json", jsonReq, 0}, {"binary", binReq, 0}, {"json with a deadline", deadlineReq, withTimeout + deadlineExtra}} {
		for i := 0; i < 8; i++ {
			if status, body := c.roundTrip(t, tc.req); status != http.StatusOK {
				t.Fatalf("%s warm-up: status %d: %s", tc.name, status, body)
			}
		}
		allocs := testing.AllocsPerRun(500, func() {
			if status, _ := c.roundTrip(t, tc.req); status != http.StatusOK {
				t.Fatalf("%s: status %d", tc.name, status)
			}
		})
		// Integral per-request counts: a regression reads ≥ 1 more, while
		// a rare GC emptying a sync.Pool mid-run adds well under one.
		if allocs >= tc.want+1 {
			t.Errorf("%s hit served over keep-alive allocates %.2f/request, want ≤ %v", tc.name, allocs, tc.want)
		}
	}
}

// TestReqCtxAfterFunc: a context derived from the loop's request
// context registers through AfterFunc, so context.WithTimeout over it
// starts no goroutine; a disconnect once the body is consumed cancels
// the derived context, and the request's end drops a registration
// unrun.
func TestReqCtxAfterFunc(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	c := newConn(&loop{}, server)
	x := &c.ctx

	before := runtime.NumGoroutine()
	cancels := make([]context.CancelFunc, 100)
	for i := range cancels {
		_, cancels[i] = context.WithTimeout(x, time.Minute)
	}
	if n := runtime.NumGoroutine() - before; n >= len(cancels)/2 {
		t.Errorf("%d WithTimeout calls started %d goroutines", len(cancels), n)
	}
	for _, cancel := range cancels {
		cancel()
	}

	ran := make(chan struct{}, 1)
	stop := x.AfterFunc(func() { ran <- struct{}{} })
	if x.stop() {
		t.Fatal("request end reports a disconnect")
	}
	if stop() {
		t.Error("stop after the request's end reports it kept f from running")
	}

	c.bodyDone()
	child, cancel := context.WithTimeout(x, time.Minute)
	defer cancel()
	client.Close()
	select {
	case <-child.Done():
		if child.Err() != context.Canceled {
			t.Errorf("derived context: %v, want %v", child.Err(), context.Canceled)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("derived context not cancelled 5 s after the disconnect")
	}
	if !x.stop() {
		t.Error("request end does not report the disconnect")
	}
	select {
	case <-ran:
		t.Error("a callback dropped at the request's end ran")
	default:
	}
}

// timingFields are the response fields that measure time or are
// random, masked before two servers' bodies are compared.
var timingFields = regexp.MustCompile(`"(elapsed_ms|uptime_ms|mean_us|max_us|token)":("[^"]*"|[^,}\]]*)`)

// dialPipe returns the client end of an in-memory connection (net.Pipe)
// that l hands to its server, so a fuzz run spends no ports and leaves
// no sockets behind.
func dialPipe(t *testing.T, l *handoffListener) net.Conn {
	client, server := net.Pipe()
	if !l.send(server) {
		t.Fatal("dial: listener closed")
	}
	return client
}

// exchange is one client connection's view of a fuzz input.
type exchange struct {
	nc     net.Conn
	br     *bufio.Reader
	status []int
	bodies [][]byte
}

// read reads responses until the connection ends or none arrives
// within wait.
func (e *exchange) read(wait time.Duration) {
	for {
		e.nc.SetReadDeadline(time.Now().Add(wait))
		resp, err := http.ReadResponse(e.br, nil)
		if err != nil {
			return
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return
		}
		if resp.Header.Get("Content-Type") == ContentTypeBinary && len(data) >= 48 {
			clear(data[40:48]) // elapsed_ms
		}
		e.status = append(e.status, resp.StatusCode)
		e.bodies = append(e.bodies, timingFields.ReplaceAll(data, []byte(`"$1":0`)))
	}
}

// fuzzSentinel follows every fuzz input: a request that answers and
// closes the connection, so an exchange ends without waiting out a
// timeout unless the input left a request incomplete.
const fuzzSentinel = "GET /v1/healthz HTTP/1.1\r\nHost: fuzz\r\nConnection: close\r\n\r\n"

// FuzzServeMatchesNetHTTP feeds raw request bytes — possibly several
// pipelined requests — to two fresh servers, one served by Serve's
// loop and one by a plain net/http.Server over the same handler: both
// must answer with the same status codes and the same bodies, timing
// fields and session tokens masked. Whatever the loop serves itself
// must therefore mean what net/http makes of it, and whatever it hands
// off must reach net/http intact.
func FuzzServeMatchesNetHTTP(f *testing.F) {
	jsonBody, binBody := hitBodies(f)
	p := makePerfbenchBodies(f, 7)
	post := func(path, ctype, accept string, body []byte) string {
		return string(rawRequest("POST", path, ctype, accept, body))
	}
	jsonReq := post("/v1/analyze", "application/json", "", jsonBody)
	binReq := post("/v1/analyze", ContentTypeBinary, ContentTypeBinary, binBody)
	cl := "Content-Length: " + strconv.Itoa(len(jsonBody)) + "\r\n"
	for _, seed := range []string{
		jsonReq,
		binReq,
		jsonReq + binReq + jsonReq + binReq + "GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n",
		post("/v1/analyze", "application/json", "", p.exactCold),
		post("/v1/assign", "application/json", "", p.assign),
		post("/v1/session", "application/json", "", []byte(`{"options":{"exact":true}}`)) +
			post("/v1/session/0123456789abcdef/analyze", "application/json", "", jsonBody),
		"DELETE /v1/session/abc HTTP/1.1\r\nHost: x\r\n\r\n" + "GET /v1/analyze HTTP/1.1\r\nHost: x\r\n\r\n" +
			"POST /v1//analyze HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}",
		// Request smuggling: Content-Length with Transfer-Encoding, a
		// duplicate Content-Length, a space before the colon.
		"POST /v1/analyze HTTP/1.1\r\nHost: x\r\nContent-Length: 6\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n" + jsonReq,
		"POST /v1/analyze HTTP/1.1\r\nHost: x\r\n" + cl + cl + "\r\n" + string(jsonBody),
		"POST /v1/analyze HTTP/1.1\r\nHost: x\r\nContent-Length : 5\r\n\r\nabcde" + jsonReq,
		"POST /v1/analyze HTTP/1.0\r\n" + cl + "\r\n" + string(jsonBody),
		"POST /v1/analyze HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n" + cl + "\r\n" + string(jsonBody),
		"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nX-Pad: " + strings.Repeat("a", connBufSize) + "\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkServeMatches)
}

// checkServeMatches is FuzzServeMatchesNetHTTP's property on one input.
func checkServeMatches(t *testing.T, raw []byte) {
	if len(raw) > 1<<20 {
		return
	}
	input := append(append([]byte(nil), raw...), fuzzSentinel...)
	opt := Options{Analysis: analysis.Options{Workers: 1}, DrainTimeout: time.Second}

	loopLn, stdLn := newHandoffListener(nil), newHandoffListener(nil)
	// An input may leave an analysis running past the drain; the
	// comparison below is the test, not the drain.
	defer startServe(New(opt), loopLn)() //nolint:errcheck
	srv := &http.Server{Handler: New(opt).Handler()}
	go srv.Serve(stdLn)
	defer srv.Close()

	ex := [2]*exchange{{nc: dialPipe(t, loopLn)}, {nc: dialPipe(t, stdLn)}}
	read, written := make(chan struct{}), make(chan struct{})
	for _, e := range ex {
		e.br = bufio.NewReader(e.nc)
		go func() {
			// A write error only cuts the exchange short; the
			// responses read so far are still compared.
			e.nc.Write(input)
			written <- struct{}{}
		}()
		go func() {
			e.read(50 * time.Millisecond)
			read <- struct{}{}
		}()
	}
	<-read
	<-read
	// A side that answered fewer requests may only be slower: give it
	// time to catch up before comparing.
	loop, std := ex[0], ex[1]
	if len(loop.status) < len(std.status) {
		loop.read(5 * time.Second)
	} else if len(std.status) < len(loop.status) {
		std.read(5 * time.Second)
	}
	for _, e := range ex {
		e.nc.Close()
		<-written
	}
	if len(loop.status) != len(std.status) {
		t.Fatalf("loop answered %d requests %v, net/http %d %v", len(loop.status), loop.status, len(std.status), std.status)
	}
	for i := range loop.status {
		if loop.status[i] == http.StatusGatewayTimeout || std.status[i] == http.StatusGatewayTimeout {
			// A deadline makes the answer, and the memo state behind
			// the later ones, depend on timing: from here on only the
			// number of responses is compared.
			break
		}
		if loop.status[i] != std.status[i] || !bytes.Equal(loop.bodies[i], std.bodies[i]) {
			t.Fatalf("response %d: loop %d %q, net/http %d %q", i, loop.status[i], loop.bodies[i], std.status[i], std.bodies[i])
		}
	}
}
