package service

import (
	"encoding/json"
	"reflect"
	"testing"
)

// The lowercase field names /v1/stats and `hsched bench -json` emit.
// A Go-default exported name leaking into the wire format (because a
// new field forgot its tag) breaks remote parsers silently — this test
// turns that into a loud failure.
func TestStatsJSONRoundTrip(t *testing.T) {
	in := Stats{
		Queries: 1, Hits: 2, Misses: 3, Evictions: 4,
		InflightDedups: 5, DeltaHits: 6, RoundsSaved: 7, ScenariosPruned: 8,
		SubtreesPruned: 9, InterferenceEvals: 13, InternHits: 10, InternMisses: 11, Resident: 12,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Stats
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	assertLowercaseKeys(t, data, reflect.TypeOf(in), []string{
		"queries", "hits", "misses", "evictions",
		"inflight_dedups", "delta_hits", "rounds_saved", "scenarios_pruned",
		"subtrees_pruned", "interference_evals", "intern_hits", "intern_misses", "intern_resident",
	})
}

func TestSessionStatsJSONRoundTrip(t *testing.T) {
	in := SessionStats{Probes: 1, MemoHits: 2, Executed: 3, DeltaHits: 4, RoundsSaved: 5}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out SessionStats
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	assertLowercaseKeys(t, data, reflect.TypeOf(in), []string{
		"probes", "memo_hits", "executed", "delta_hits", "rounds_saved",
	})
}

// assertLowercaseKeys requires the marshalled object to have exactly
// the given keys — no Go-default exported names, no extras — and the
// struct to have exactly that many fields, so adding a counter without
// extending the wire contract (and this test) fails loudly.
func assertLowercaseKeys(t *testing.T, data []byte, typ reflect.Type, want []string) {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != len(want) {
		t.Errorf("marshalled %d keys, want %d: %s", len(m), len(want), data)
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Errorf("key %q missing from %s", k, data)
		}
	}
	if typ.NumField() != len(want) {
		t.Errorf("%s has %d fields, wire contract lists %d", typ.Name(), typ.NumField(), len(want))
	}
}
