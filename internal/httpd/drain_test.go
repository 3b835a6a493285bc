package httpd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer is an io.Writer safe to read after Serve returns.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestGracefulDrain exercises the SIGTERM path end to end (the CLI
// maps the signal to a context cancel): with a slow analysis in
// flight, cancelling the serve context must stop the listener — new
// connections are refused — while the in-flight request runs to
// completion and gets its 200; Serve then returns nil and flushes a
// final stats line.
func TestGracefulDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{DrainTimeout: 30 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	logw := &lockedBuffer{}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln, logw) }()

	base := "http://" + ln.Addr().String()
	client := &http.Client{}

	// Launch the slow in-flight request.
	slow := slowSystem(t)
	body, err := json.Marshal(&AnalyzeRequest{System: slow})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		status int
		body   []byte
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := client.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		inflight <- result{status: resp.StatusCode, body: data}
	}()
	for i := 0; s.inflight.Load() == 0; i++ {
		if i > 5000 {
			t.Fatal("slow request never entered flight")
		}
		time.Sleep(time.Millisecond)
	}

	// SIGTERM (as the CLI delivers it): stop accepting.
	cancel()

	// New connections are refused once the listener closes. The close
	// races with the cancel, so poll.
	refused := false
	for i := 0; i < 5000 && !refused; i++ {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), 100*time.Millisecond)
		if err != nil {
			refused = true
			break
		}
		conn.Close()
		time.Sleep(time.Millisecond)
	}
	if !refused {
		t.Error("listener still accepting connections after cancel")
	}

	// The in-flight request still completes normally.
	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request: status %d: %s", r.status, r.body)
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Converged {
		t.Error("in-flight analysis did not converge")
	}

	// Serve drains clean and flushes the final stats line.
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if out := logw.String(); !strings.Contains(out, "final stats") || !strings.Contains(out, `"queries":1`) {
		t.Errorf("final stats line: %q", out)
	}
}

// TestDrainRespectsRequestDeadline: an in-flight request with its own
// deadline does not stall the drain — it 504s at its deadline and the
// server exits.
func TestDrainRespectsRequestDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{DrainTimeout: 30 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln, nil) }()

	slow := slowSystem(t)
	body, err := json.Marshal(&AnalyzeRequest{System: slow, Options: OptionsSpec{DeadlineMS: 150}})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		status int
		body   []byte
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		inflight <- result{status: resp.StatusCode, body: data}
	}()
	for i := 0; s.inflight.Load() == 0; i++ {
		if i > 5000 {
			t.Fatal("request never entered flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request: %v", r.err)
	}
	if r.status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", r.status, r.body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(r.body, &er); err != nil {
		t.Fatal(err)
	}
	if er.DeadlineMS != 150 || er.Stats == nil {
		t.Errorf("504 during drain: %+v", er)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return")
	}
}

// TestServeListenerError: a listener failing outright surfaces as an
// error, not a hang.
func TestServeListenerError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{})
	served := make(chan error, 1)
	go func() { served <- s.Serve(context.Background(), ln, nil) }()
	// Closing the listener out from under Serve is the failure mode.
	time.Sleep(10 * time.Millisecond)
	ln.Close()
	select {
	case err := <-served:
		if err == nil || errors.Is(err, context.Canceled) {
			t.Fatalf("Serve: %v, want listener error", err)
		}
		if !strings.Contains(err.Error(), "closed") {
			t.Logf("listener error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after listener close")
	}
}

// TestStalledBodyFreesSlot: a client that sends its headers and one
// body byte, then stalls, gets a 400 once the whole-request read
// timeout expires, and its in-flight slot frees, so a polite request
// is served instead of shed. An idle keep-alive connection outlives
// that timeout and is still reusable.
func TestStalledBodyFreesSlot(t *testing.T) {
	old := readTimeout
	readTimeout = 300 * time.Millisecond
	t.Cleanup(func() { readTimeout = old })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{MaxInflight: 1})
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln, nil) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	addr := ln.Addr().String()

	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "POST /v1/analyze HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{"); err != nil {
		t.Fatal(err)
	}
	stalled.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(stalled), nil)
	if err != nil {
		t.Fatalf("stalled request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stalled request: status %d, want 400", resp.StatusCode)
	}
	for i := 0; s.inflight.Load() != 0; i++ {
		if i > 5000 {
			t.Fatal("stalled request still holds its in-flight slot")
		}
		time.Sleep(time.Millisecond)
	}

	// A polite request on a keep-alive connection is served, and the
	// connection, idle for longer than the read timeout, serves another.
	body, err := json.Marshal(&AnalyzeRequest{System: paperFile()})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := range 2 {
		if i > 0 {
			time.Sleep(2 * readTimeout)
		}
		fmt.Fprintf(conn, "POST /v1/analyze HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("polite request %d: %v", i, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("polite request %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
}
