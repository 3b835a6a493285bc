package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hsched/internal/httpd"
	"hsched/internal/service"
)

// server is one running `hsched serve`.
type server struct {
	addr string
	// pid is the process whose CPU time and peak RSS the run reports.
	pid  int
	stop func() error
}

// starter starts a fresh server and returns once it accepts
// connections.
type starter func() (*server, error)

// processStarter execs `bin serve` on a free loopback port. The child
// is killed if the benchmark dies, so no run leaves a server behind.
func processStarter(bin string) starter {
	return func() (*server, error) {
		cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", bin, err)
		}
		stop := func() error {
			cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // a dead child fails Wait instead
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case err := <-done:
				return err
			case <-time.After(10 * time.Second):
				cmd.Process.Kill() //nolint:errcheck // Wait reports the outcome
				return fmt.Errorf("server did not drain: %w", <-done)
			}
		}
		line, err := bufio.NewReader(out).ReadString('\n')
		const banner = "hsched serve: listening on "
		if err != nil || !strings.HasPrefix(line, banner) {
			stop() //nolint:errcheck // already failing
			return nil, fmt.Errorf("server banner %q: %v (stderr: %s)", line, err, stderr.String())
		}
		return &server{addr: strings.TrimSpace(line[len(banner):]), pid: cmd.Process.Pid, stop: stop}, nil
	}
}

// client is one keep-alive loopback connection speaking raw HTTP/1.1:
// requests are pre-assembled, so the load generator spends its time on
// the wire and not in net/http's client stack.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{addr: addr, conn: conn, br: bufio.NewReader(conn)}, nil
}

func (c *client) close() { c.conn.Close() }

// rawRequest assembles the wire bytes of one POST.
func rawRequest(path string, cl *call) wire {
	ctype, accept := "application/json", ""
	if cl.binary {
		ctype = httpd.ContentTypeBinary
		accept = "Accept: " + httpd.ContentTypeBinary + "\r\n"
	}
	raw := fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: %s\r\n%sContent-Length: %d\r\n\r\n%s",
		path, ctype, accept, len(cl.body), cl.body)
	return wire{raw: raw, binary: cl.binary, bytes: len(cl.body)}
}

// roundTrip writes one request and reads its whole response, appending
// the body to dst.
func (c *client) roundTrip(raw, dst []byte) (int, []byte, error) {
	c.conn.SetDeadline(time.Now().Add(time.Minute)) //nolint:errcheck // a failed deadline fails the I/O below
	if _, err := c.conn.Write(raw); err != nil {
		return 0, dst, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, dst, err
	}
	buf := bytes.NewBuffer(dst)
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, buf.Bytes(), err
}

// do sends one request built with net/http conventions (set-up and
// stats traffic, not measured).
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	raw := fmt.Appendf(nil, "%s %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		method, path, len(body), body)
	return c.roundTrip(raw, nil)
}

// getJSON fetches path and decodes the 200 body into v.
func (c *client) getJSON(path string, v any) error {
	status, body, err := c.do("GET", path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(body, v)
}

// counters is a snapshot of everything the server counts that the
// mechanism checks and per-layer ratios read.
type counters struct {
	stats    httpd.StatsResponse
	sessions []service.SessionStats
}

func snapshot(c *client, tokens []string) (counters, error) {
	var s counters
	if err := c.getJSON("/v1/stats", &s.stats); err != nil {
		return s, err
	}
	for _, t := range tokens {
		var ss service.SessionStats
		if err := c.getJSON("/v1/session/"+t+"/stats", &ss); err != nil {
			return s, err
		}
		s.sessions = append(s.sessions, ss)
	}
	return s, nil
}

// wire is one request ready to send.
type wire struct {
	raw    []byte // the whole HTTP request
	binary bool
	bytes  int // body size
}

// sample is one measured request of a loopback phase.
type sample struct {
	conn, i    int  // connection and stream index
	binary     bool // sent with the binary codec
	bytes      int  // request body size
	start, end time.Duration
	status     int
	err        error
	off, n     int // response body in the connection's arena
}

// phaseResult is one loopback phase: the samples of both connections
// and the bodies they read.
type phaseResult struct {
	samples []sample
	arenas  [conns][]byte
	next    [conns]int // stream index each connection stopped at
	wall    time.Duration
	// err is the first request that could not be generated.
	err error
}

// body returns the response body of sample s.
func (p *phaseResult) body(s *sample) []byte { return p.arenas[s.conn][s.off : s.off+s.n] }

// runPhase drives every connection in a closed loop for dur, starting
// at the given stream indices: each client sends its next request only
// when the previous response has been read. raw[c] generates request i
// of connection c, between two requests and outside their timing. A
// non-nil tracer records one client span per request.
func runPhase(clients [conns]*client, raw [conns]func(i int) (wire, error), from [conns]int, dur time.Duration, tr *tracer) *phaseResult {
	res := &phaseResult{}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		per  [conns][]sample
		t0   = time.Now()
		stop = t0.Add(dur)
	)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := make([]byte, 0, 1<<20)
			samples := make([]sample, 0, 1<<14)
			i := from[c]
			for ; time.Now().Before(stop); i++ {
				req, err := raw[c](i)
				if err != nil {
					mu.Lock()
					res.err = err
					mu.Unlock()
					break
				}
				var traceStart int64
				if tr != nil {
					traceStart = tr.now()
				}
				start := time.Since(t0)
				off := len(arena)
				status, out, err := clients[c].roundTrip(req.raw, arena)
				arena = out
				if tr != nil {
					tr.add(0, int64(i*conns+c), layerClient, traceStart)
				}
				samples = append(samples, sample{
					conn: c, i: i, binary: req.binary, bytes: req.bytes, start: start, end: time.Since(t0),
					status: status, err: err, off: off, n: len(arena) - off,
				})
				if err != nil {
					// Reconnect so one broken connection costs one request.
					clients[c].close()
					if nc, derr := dial(clients[c].addr); derr == nil {
						clients[c] = nc
					}
				}
			}
			per[c], res.arenas[c], res.next[c] = samples, arena, i
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	for c := range per {
		res.samples = append(res.samples, per[c]...)
	}
	return res
}

// procCPU reads a process's user+system CPU time from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields start after its ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * (time.Second / 100), nil
}

// procHWM reads a process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
