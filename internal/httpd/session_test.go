package httpd

import (
	"net/http"
	"testing"
)

func createSession(t *testing.T, s *Server, opt OptionsSpec) string {
	t.Helper()
	var resp SessionResponse
	w := do(t, s, "POST", "/v1/session", &SessionRequest{Options: opt}, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("session create: status %d: %s", w.Code, w.Body.String())
	}
	if len(resp.Token) != 32 {
		t.Fatalf("token %q, want 32 hex chars", resp.Token)
	}
	return resp.Token
}

// The remote form of a probe chain: a full-spec probe executes and
// pins a seed, an identical probe is a memo hit, and an edit probe
// rides the pinned seed through the incremental path — observed
// entirely through the wire via the response's session_stats.
func TestSessionProbeChain(t *testing.T) {
	s := New(Options{})
	token := createSession(t, s, OptionsSpec{})
	path := "/v1/session/" + token + "/analyze"

	var resp AnalyzeResponse
	if w := do(t, s, "POST", path, &AnalyzeRequest{System: paperFile()}, &resp); w.Code != http.StatusOK {
		t.Fatalf("first probe: status %d: %s", w.Code, w.Body.String())
	}
	if !resp.Schedulable {
		t.Fatal("paper example not schedulable")
	}
	ss := resp.SessionStats
	if ss == nil || ss.Probes != 1 || ss.Executed != 1 || ss.MemoHits != 0 {
		t.Fatalf("first probe stats: %+v, want 1 probe executed", ss)
	}

	// Identical probe: answered from the memo, no analysis.
	if w := do(t, s, "POST", path, &AnalyzeRequest{System: paperFile()}, &resp); w.Code != http.StatusOK {
		t.Fatalf("second probe: status %d: %s", w.Code, w.Body.String())
	}
	if ss = resp.SessionStats; ss.MemoHits != 1 || ss.Executed != 1 {
		t.Fatalf("second probe stats: %+v, want 1 memo hit", ss)
	}

	// One-edit probe: rides the pinned seed (delta, not cold).
	repl := paperFile().Transactions[0]
	repl.Tasks[0].WCET = 1.1
	edit := &AnalyzeRequest{Edit: &EditSpec{Set: []TransactionSet{{Index: 1, Transaction: repl}}}}
	if w := do(t, s, "POST", path, edit, &resp); w.Code != http.StatusOK {
		t.Fatalf("edit probe: status %d: %s", w.Code, w.Body.String())
	}
	if resp.Delta == nil {
		t.Fatal("edit probe did not ride the incremental path")
	}
	if ss = resp.SessionStats; ss.DeltaHits != 1 || ss.Executed != 2 {
		t.Fatalf("edit probe stats: %+v, want 1 delta hit", ss)
	}
	if resp.Delta.CleanTasks == 0 {
		t.Errorf("delta profile replayed no tasks: %+v", resp.Delta)
	}

	// A chained second edit applies against the edited system, not
	// the original: removing the transaction the first edit touched
	// still leaves the other two.
	edit2 := &AnalyzeRequest{Edit: &EditSpec{Remove: []int{1}}}
	if w := do(t, s, "POST", path, edit2, &resp); w.Code != http.StatusOK {
		t.Fatalf("chained edit: status %d: %s", w.Code, w.Body.String())
	}
	if len(resp.Transactions) != 3 {
		t.Fatalf("%d transactions after remove, want 3", len(resp.Transactions))
	}

	// GET stats matches the last response's snapshot.
	var got map[string]int64
	if w := do(t, s, "GET", "/v1/session/"+token+"/stats", nil, &got); w.Code != http.StatusOK {
		t.Fatalf("session stats: status %d", w.Code)
	}
	if got["probes"] != 4 || got["memo_hits"] != 1 {
		t.Errorf("session stats over the wire: %v", got)
	}
}

func TestSessionErrors(t *testing.T) {
	s := New(Options{})
	token := createSession(t, s, OptionsSpec{})
	path := "/v1/session/" + token + "/analyze"

	// Unknown token.
	if w := do(t, s, "POST", "/v1/session/deadbeef/analyze", &AnalyzeRequest{System: paperFile()}, nil); w.Code != http.StatusNotFound {
		t.Errorf("unknown token: status %d, want 404", w.Code)
	}
	// Edit before any accepted system.
	if w := do(t, s, "POST", path, &AnalyzeRequest{Edit: &EditSpec{Remove: []int{1}}}, nil); w.Code != http.StatusBadRequest {
		t.Errorf("edit without base: status %d, want 400", w.Code)
	}
	// Both system and edit.
	both := &AnalyzeRequest{System: paperFile(), Edit: &EditSpec{Remove: []int{1}}}
	if w := do(t, s, "POST", path, both, nil); w.Code != http.StatusBadRequest {
		t.Errorf("system+edit: status %d, want 400", w.Code)
	}
	// Neither.
	if w := do(t, s, "POST", path, &AnalyzeRequest{}, nil); w.Code != http.StatusBadRequest {
		t.Errorf("empty probe: status %d, want 400", w.Code)
	}
	// Static is not session-scoped.
	static := &AnalyzeRequest{System: paperFile(), Options: OptionsSpec{Static: true}}
	if w := do(t, s, "POST", path, static, nil); w.Code != http.StatusBadRequest {
		t.Errorf("static probe: status %d, want 400", w.Code)
	}

	// A failed edit must not advance the base: the next valid edit
	// still applies against the last accepted system.
	if w := do(t, s, "POST", path, &AnalyzeRequest{System: paperFile()}, nil); w.Code != http.StatusOK {
		t.Fatalf("seed probe failed")
	}
	if w := do(t, s, "POST", path, &AnalyzeRequest{Edit: &EditSpec{Remove: []int{9}}}, nil); w.Code != http.StatusBadRequest {
		t.Errorf("bad edit: status %d, want 400", w.Code)
	}
	var resp AnalyzeResponse
	if w := do(t, s, "POST", path, &AnalyzeRequest{Edit: &EditSpec{Remove: []int{3}}}, &resp); w.Code != http.StatusOK {
		t.Fatalf("edit after failed edit: status %d: %s", w.Code, w.Body.String())
	}
	if len(resp.Transactions) != 3 {
		t.Errorf("%d transactions, want 3 (base advanced on a failed edit?)", len(resp.Transactions))
	}
}

func TestSessionDelete(t *testing.T) {
	s := New(Options{})
	token := createSession(t, s, OptionsSpec{})
	if w := do(t, s, "DELETE", "/v1/session/"+token, nil, nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", w.Code)
	}
	if w := do(t, s, "DELETE", "/v1/session/"+token, nil, nil); w.Code != http.StatusNotFound {
		t.Errorf("double delete: status %d, want 404", w.Code)
	}
	if w := do(t, s, "GET", "/v1/session/"+token+"/stats", nil, nil); w.Code != http.StatusNotFound {
		t.Errorf("stats after delete: status %d, want 404", w.Code)
	}
}

func TestSessionLRUEviction(t *testing.T) {
	s := New(Options{MaxSessions: 2})
	t1 := createSession(t, s, OptionsSpec{})
	t2 := createSession(t, s, OptionsSpec{})
	// Touch t1 so t2 is the LRU victim.
	if w := do(t, s, "GET", "/v1/session/"+t1+"/stats", nil, nil); w.Code != http.StatusOK {
		t.Fatal("t1 stats")
	}
	t3 := createSession(t, s, OptionsSpec{})
	if w := do(t, s, "GET", "/v1/session/"+t2+"/stats", nil, nil); w.Code != http.StatusNotFound {
		t.Errorf("t2 should be evicted: status %d", w.Code)
	}
	for _, tok := range []string{t1, t3} {
		if w := do(t, s, "GET", "/v1/session/"+tok+"/stats", nil, nil); w.Code != http.StatusOK {
			t.Errorf("session %s gone: status %d", tok, w.Code)
		}
	}
	var st StatsResponse
	do(t, s, "GET", "/v1/stats", nil, &st)
	if st.Sessions.Open != 2 || st.Sessions.Created != 3 || st.Sessions.Evicted != 1 {
		t.Errorf("session counters: %+v", st.Sessions)
	}
}

// TestSessionFlood: a flood of sessions that are created and never
// used, more than the registry holds, evicts none of the sessions that
// have served a request. Once the registry is full, each flood token
// enters probation untouched and is a later one's victim; the used
// sessions sit in main.
func TestSessionFlood(t *testing.T) {
	const maxSessions, used, flood = 8, 4, 40
	s := New(Options{MaxSessions: maxSessions})
	var kept []string
	for range used {
		token := createSession(t, s, OptionsSpec{})
		var resp AnalyzeResponse
		if w := do(t, s, "POST", "/v1/session/"+token+"/analyze", &AnalyzeRequest{System: paperFile()}, &resp); w.Code != http.StatusOK {
			t.Fatalf("probe: status %d: %s", w.Code, w.Body.String())
		}
		kept = append(kept, token)
	}
	for range flood {
		createSession(t, s, OptionsSpec{})
	}
	for i, token := range kept {
		if w := do(t, s, "GET", "/v1/session/"+token+"/stats", nil, nil); w.Code != http.StatusOK {
			t.Errorf("used session %d evicted by the flood: status %d", i, w.Code)
		}
	}
	var st StatsResponse
	do(t, s, "GET", "/v1/stats", nil, &st)
	if st.Sessions.Created != used+flood || st.Sessions.Evicted != used+flood-maxSessions || st.Sessions.Open != maxSessions {
		t.Errorf("session counters: %+v, want %d created, %d evicted, %d open",
			st.Sessions, used+flood, used+flood-maxSessions, maxSessions)
	}
}

// TestSessionUnusedKeptWhileRoom: sessions opened in a burst, more of
// them than the registry's probation holds, all survive until their
// first probe while the registry has room.
func TestSessionUnusedKeptWhileRoom(t *testing.T) {
	const maxSessions, opened = 16, 15 // probation holds 8
	s := New(Options{MaxSessions: maxSessions})
	var tokens []string
	for range opened {
		tokens = append(tokens, createSession(t, s, OptionsSpec{}))
	}
	for i, token := range tokens {
		var resp AnalyzeResponse
		if w := do(t, s, "POST", "/v1/session/"+token+"/analyze", &AnalyzeRequest{System: paperFile()}, &resp); w.Code != http.StatusOK {
			t.Errorf("session %d of %d before its first probe: status %d", i, opened, w.Code)
		}
	}
	var st StatsResponse
	do(t, s, "GET", "/v1/stats", nil, &st)
	if st.Sessions.Evicted != 0 || st.Sessions.Open != opened {
		t.Errorf("session counters: %+v, want none evicted, %d open", st.Sessions, opened)
	}
}

// The session's creation-time options are the default for probes that
// omit their own block.
func TestSessionDefaultOptions(t *testing.T) {
	s := New(Options{})
	token := createSession(t, s, OptionsSpec{Bounds: true})
	var resp AnalyzeResponse
	w := do(t, s, "POST", "/v1/session/"+token+"/analyze", &AnalyzeRequest{System: paperFile()}, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if len(resp.Transactions[0].Tasks) == 0 {
		t.Error("session default options (bounds) not applied")
	}
}
