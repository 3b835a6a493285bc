package main

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"sort"
	"testing"

	"hsched/internal/model"
	"hsched/internal/platform"
)

var errTransport = errors.New("connection reset")

// overloaded is a system no analysis can schedule: one task needing
// twice its period.
func overloaded() *model.System {
	return &model.System{
		Platforms: []platform.Params{platform.Dedicated()},
		Transactions: []model.Transaction{{
			Name: "Gamma1", Period: 10, Deadline: 10,
			Tasks: []model.Task{{Name: "tau1,1", WCET: 20, BCET: 1, Priority: 1}},
		}},
	}
}

// inProcess starts the `hsched serve` stack inside the test process on
// a loopback port, so the tests need no built binary. CPU figures then
// include the load generator's; the tests do not read them.
func inProcess() (*server, error) {
	srv, _ := newStack()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln, nil) }()
	return &server{addr: ln.Addr().String(), pid: os.Getpid(), stop: func() error {
		cancel()
		return <-done
	}}, nil
}

// shortRun runs one workload briefly against the in-process server.
func shortRun(t *testing.T, w *workload, traced bool) *report {
	t.Helper()
	cfg := config{w: w, seed: 3, seconds: 1, start: inProcess, setups: 2}
	run := runEndToEnd
	if traced {
		run = runTraced
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if tl := rep.total(); tl.failed != 0 || tl.attempted == 0 {
		t.Fatalf("%s: %d of %d requests failed: %v", w.name, tl.failed, tl.attempted, rep.errors)
	}
	return rep
}

// TestMechanisms asserts, on a short run of every workload, that the
// mechanism the workload exists to exercise fires, and that the traced
// run finds the layer the workload predicts doing most of the work.
func TestMechanisms(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rep := shortRun(t, w, traced)
				if !rep.mechanismOK {
					t.Errorf("traced=%v: mechanism check failed:\n%s", traced, join(rep.lines))
				}
				if traced && !rep.layerMapOK {
					t.Errorf("predicted layer map does not hold:\n%s", join(rep.lines))
				}
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics the benchmark emits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, benchmark has %q: %q", i, decl.Workloads[i].Name, w.name, w.why)
		}
	}
	w, _ := lookupWorkload("hit-mix")
	for _, c := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, decl.EndToEnd}, {true, decl.PerLayer}} {
		rep := shortRun(t, w, c.traced)
		var got, want []string
		for _, m := range rep.metrics {
			got = append(got, m.name+" "+m.unit)
		}
		for _, m := range c.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if join(got) != join(want) {
			t.Errorf("traced=%v: emitted metrics\n%s\ndeclared\n%s", c.traced, join(got), join(want))
		}
	}
}

func join(lines []string) string {
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}
