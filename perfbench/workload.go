package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"hsched/internal/analysis"
	"hsched/internal/gen"
	"hsched/internal/httpd"
	"hsched/internal/model"
	"hsched/internal/spec"
)

// conns is the number of keep-alive connections the load generator
// drives: one closed-loop client per processor of the 2-core host the
// benchmark was sized on.
const conns = 2

// kind is the route family a workload's requests use.
type kind int

const (
	kindAnalyze kind = iota // POST /v1/analyze, JSON or binary codec
	kindSession             // POST /v1/session/{token}/analyze, JSON
	kindAssign              // POST /v1/assign, JSON
)

// call is one request of a workload stream.
type call struct {
	binary bool   // binary request body and binary response
	body   []byte // request body
	// sys is the system the server analyses, the reference answer's
	// input; nil for a session edit, whose system is the session chain
	// after the edit (see edit).
	sys  *model.System
	edit *edit
}

// edit is one session edit of admit-edit: transaction tx of the
// session's current system is replaced by transaction tx of base with
// every WCET and BCET scaled by factor. Edits chain: each applies to
// the system the previous request left in the session.
type edit struct {
	base   *model.System
	tx     int
	factor float64
}

// inputs is everything a workload sends, generated from the seed.
type inputs struct {
	kind kind
	// opt is the options block every request carries.
	opt httpd.OptionsSpec
	// warm is sent during set-up, per connection, and primes the server:
	// after it, the measured stream runs in the state the workload
	// means to characterise. Session workloads continue one session
	// chain from warm into the stream.
	warm [conns][]call
	// stream generates request i of connection c's measured stream, on
	// demand: streams are unbounded, so a faster server never runs out
	// of work. It is a pure function of (c, i) — the checks regenerate
	// the requests they verify instead of keeping them — and safe for
	// one goroutine per connection.
	stream func(c, i int) (*call, error)
	// cycle, when positive, is the period of a stream that repeats; its
	// wire bytes are then assembled once, up front.
	cycle int
}

// analysis is the analysis configuration the server derives from the
// requests' options block (with the `hsched serve` default of one
// worker), for the reference answers and the traced run's engine.
func (in *inputs) analysis() analysis.Options {
	return analysis.Options{
		Exact:              in.opt.Exact,
		StopAtDeadlineMiss: in.opt.StopAtDeadlineMiss,
		MaxIterations:      in.opt.MaxIterations,
		Workers:            1,
	}
}

// path is the route of the workload's requests; token is the
// connection's session token (session workloads only).
func (in *inputs) path(token string) string {
	switch in.kind {
	case kindSession:
		return "/v1/session/" + token + "/analyze"
	case kindAssign:
		return "/v1/assign"
	default:
		return "/v1/analyze"
	}
}

// sessionBody is the body of the POST /v1/session that opens a
// connection's session: the options block becomes the session default.
func (in *inputs) sessionBody() []byte {
	body, _ := json.Marshal(&httpd.SessionRequest{Options: in.opt}) // a plain struct always encodes
	return body
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	// salt separates the workloads' random streams for one seed.
	salt int64
	// make generates the inputs from the salted seed.
	make func(seed int64) (*inputs, error)
	// busy is the predicted layer map: the layers that together do
	// most of the work, ahead of any other single layer.
	busy []string
}

var workloads = []*workload{
	{
		name: "hit-mix",
		why:  "repeated queries over 256 resident systems, JSON and binary codecs alternating, all memo hits: httpd intake, model hashing and service lookups busy; analysis and sched idle",
		salt: 0x68697400,
		make: makeHitMix,
		busy: []string{layerHTTPD, layerSpec, layerModel},
	},
	{
		name: "admit-edit",
		why:  "session set-edits of one transaction of fresh 3x8-12 systems: every system is novel, so analysis (session-pinned delta replay, engine rounds) is busy; memo hits and sched idle",
		salt: 0x61646d00,
		make: makeAdmitEdit,
		busy: []string{layerAnalysis},
	},
	{
		name: "exact-cold",
		why:  "never-seen single-platform random-priority systems with options.exact: memo, intern and delta pools cannot answer, so analysis (the exact sweep) is busy; sched idle",
		salt: 0x65786300,
		make: makeExactCold,
		busy: []string{layerAnalysis},
	},
	{
		name: "assign-search",
		why:  "one Audsley priority search per request on a fresh system, about 14 one-move-apart probes: sched (with the probes' analyses) is busy; binary intake and intern pool idle",
		salt: 0x61736700,
		make: makeAssignSearch,
		busy: []string{layerSched},
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// mix derives a generator seed from a seed and a request's coordinates
// (a splitmix64-style hash), so any request of a stream can be drawn
// without drawing the ones before it.
func mix(parts ...int64) int64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h ^= uint64(p)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
		h *= 0x94d049bb133111eb
		h ^= h >> 29
	}
	return int64(h >> 1)
}

// fixedSeed seeds the warm-up inputs that do not depend on --seed, so
// set-up does the same work on every run of a workload.
const fixedSeed = 0x5eed

// analyzeCall encodes one /v1/analyze request for sys.
func analyzeCall(sys *model.System, binary bool, opt httpd.OptionsSpec) (call, error) {
	c := call{binary: binary, sys: sys}
	var err error
	if binary {
		c.body, err = httpd.EncodeAnalyzeRequestBinary(sys, opt)
	} else {
		c.body, err = json.Marshal(&httpd.AnalyzeRequest{System: spec.FromSystem(sys), Options: opt})
	}
	return c, err
}

// hitPopulation is the resident population of hit-mix: small enough
// that every system fits the verdict memo, the intern pool and (as
// JSON) the parse memo at their default sizes.
const hitPopulation = 256

// hitCycle is the period of each hit-mix connection's stream.
const hitCycle = 4096

func makeHitMix(seed int64) (*inputs, error) {
	in := &inputs{kind: kindAnalyze, cycle: hitCycle}
	bodies := make([][2]call, hitPopulation)
	for k := range bodies {
		sys, err := gen.System(gen.Config{
			Seed: mix(seed, int64(k)), Platforms: 2, Transactions: 3, ChainLen: 3,
			PeriodMin: 20, PeriodMax: 400, Utilization: 0.45, AlphaMin: 0.4, AlphaMax: 0.9,
		})
		if err != nil {
			return nil, err
		}
		for codec := range 2 {
			if bodies[k][codec], err = analyzeCall(sys, codec == 1, in.opt); err != nil {
				return nil, err
			}
		}
		// The warm-up primes every body once, so every measured request
		// is a parse-memo or intern hit followed by a verdict-memo hit.
		in.warm[0] = append(in.warm[0], bodies[k][0], bodies[k][1])
	}
	var streams [conns][]*call
	rng := rand.New(rand.NewSource(seed))
	for c := range streams {
		streams[c] = make([]*call, hitCycle)
		for i := range streams[c] {
			streams[c][i] = &bodies[rng.Intn(hitPopulation)][i%2]
		}
	}
	in.stream = func(c, i int) (*call, error) { return streams[c][i%hitCycle], nil }
	return in, nil
}

// Admit-edit shape: each session block starts with a full-system probe
// of a fresh base system, followed by blockLen-1 single-transaction
// edits with WCETs drawn from [editLo, editLo+editSpan) times the base.
const (
	blockLen = 32
	editLo   = 0.6
	editSpan = 0.8
)

func admitBase(rng *rand.Rand) (*model.System, error) {
	return gen.System(gen.Config{
		Seed: rng.Int63(), Platforms: 3, Transactions: 8 + rng.Intn(5), ChainLen: 4,
		PeriodMin: 20, PeriodMax: 400, Utilization: 0.4, AlphaMin: 0.4, AlphaMax: 0.9,
	})
}

// editTarget draws the transaction an edit replaces: any but the one
// with the highest priority. Editing that one dirties every task on its
// platforms, so the engine rightly runs cold; cold analysis is
// exact-cold's subject, and admit-edit keeps to incremental ones.
func editTarget(rng *rand.Rand, base *model.System) int {
	top := 0
	for i := range base.Transactions {
		if base.Transactions[i].Tasks[0].Priority > base.Transactions[top].Tasks[0].Priority {
			top = i
		}
	}
	tx := rng.Intn(len(base.Transactions) - 1)
	if tx >= top {
		tx++
	}
	return tx
}

// scaled returns transaction tx of base with WCETs and BCETs scaled by f.
func scaled(base *model.System, tx int, f float64) model.Transaction {
	tr := base.Transactions[tx]
	tr.Tasks = append([]model.Task(nil), tr.Tasks...)
	for j := range tr.Tasks {
		tr.Tasks[j].WCET *= f
		tr.Tasks[j].BCET *= f
	}
	return tr
}

// admitBlock generates block b of connection c's session chain.
func admitBlock(seed int64, c, b int) ([]call, error) {
	rng := rand.New(rand.NewSource(mix(seed, int64(c), int64(b))))
	base, err := admitBase(rng)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(&httpd.AnalyzeRequest{System: spec.FromSystem(base)})
	if err != nil {
		return nil, err
	}
	block := []call{{body: body, sys: base}}
	for len(block) < blockLen {
		e := &edit{base: base, tx: editTarget(rng, base), factor: editLo + editSpan*rng.Float64()}
		one := &model.System{Platforms: base.Platforms, Transactions: []model.Transaction{scaled(base, e.tx, e.factor)}}
		body, err := json.Marshal(&httpd.AnalyzeRequest{Edit: &httpd.EditSpec{
			Set: []httpd.TransactionSet{{Index: e.tx + 1, Transaction: spec.FromSystem(one).Transactions[0]}},
		}})
		if err != nil {
			return nil, err
		}
		block = append(block, call{body: body, edit: e})
	}
	return block, nil
}

func makeAdmitEdit(seed int64) (*inputs, error) {
	in := &inputs{kind: kindSession}
	// Set-up sends one block per connection from fixedSeed; the measured
	// stream starts with a base probe, so the chains join cleanly.
	for c := range in.warm {
		block, err := admitBlock(fixedSeed, c, 0)
		if err != nil {
			return nil, err
		}
		in.warm[c] = block
	}
	// Each connection keeps its current block: requests are drawn in
	// order, so a block is generated once per blockLen requests.
	type cached struct {
		mu    sync.Mutex
		b     int
		block []call
	}
	var cache [conns]cached
	for c := range cache {
		cache[c].b = -1
	}
	in.stream = func(c, i int) (*call, error) {
		b := i / blockLen
		ch := &cache[c]
		ch.mu.Lock()
		defer ch.mu.Unlock()
		if ch.b != b {
			block, err := admitBlock(seed, c, b)
			if err != nil {
				return nil, err
			}
			ch.b, ch.block = b, block
		}
		return &ch.block[i%blockLen], nil
	}
	return in, nil
}

func exactSystem(seed int64) (*model.System, error) {
	return gen.System(gen.Config{
		Seed: seed, Platforms: 1, Transactions: 4, ChainLen: 4,
		PeriodMin: 20, PeriodMax: 400, Utilization: 0.35, AlphaMin: 0.5, AlphaMax: 0.9,
		RandomPriorities: true,
	})
}

// exactWarm is the number of exact-cold set-up requests.
const exactWarm = 64

// The generator's math/rand source reduces its seed modulo 2^31-1 (and
// maps 0 to a fixed value), so hashed seeds would collide: a stream of
// 40000 systems drawn from hashes repeats one about every other run,
// and a repeat is a memo hit. Fresh systems therefore take consecutive
// seeds from disjoint ranges in [1, 2^31-1): the measured streams from
// the lower half, the warm-up from the upper.
const seedSpan = 1 << 30

// streamSeed is the generator seed of request i of connection c.
func streamSeed(seed int64, c, i int) int64 {
	return 1 + (mix(seed)+int64(i)*conns+int64(c))%(seedSpan-1)
}

// warmSeed is the generator seed of warm-up request k.
func warmSeed(k int) int64 {
	return seedSpan + (mix(fixedSeed)+int64(k))%(seedSpan-1)
}

// freshSystems fills in the warm-up and makes a stream of one fresh
// system per request: no two requests of a run share a system.
func freshSystems(in *inputs, seed int64, warm int, system func(int64) (*model.System, error), encode func(sys *model.System, i int) (call, error)) error {
	for k := range warm {
		sys, err := system(warmSeed(k))
		if err != nil {
			return err
		}
		cl, err := encode(sys, k)
		if err != nil {
			return err
		}
		in.warm[0] = append(in.warm[0], cl)
	}
	in.stream = func(c, i int) (*call, error) {
		sys, err := system(streamSeed(seed, c, i))
		if err != nil {
			return nil, err
		}
		cl, err := encode(sys, i)
		return &cl, err
	}
	return nil
}

func makeExactCold(seed int64) (*inputs, error) {
	// Admission traffic wants the verdict: stopping at the first
	// provable miss keeps unschedulable systems from iterating hundreds
	// of exact rounds, which bounds the tail.
	in := &inputs{kind: kindAnalyze, opt: httpd.OptionsSpec{Exact: true, StopAtDeadlineMiss: true}}
	err := freshSystems(in, seed, exactWarm, exactSystem, func(sys *model.System, i int) (call, error) {
		return analyzeCall(sys, i%2 == 1, in.opt)
	})
	return in, err
}

func assignSystem(seed int64) (*model.System, error) {
	return gen.System(gen.Config{
		Seed: seed, Platforms: 2, Transactions: 4, ChainLen: 3,
		PeriodMin: 20, PeriodMax: 400, Utilization: 0.4, AlphaMin: 0.4, AlphaMax: 0.9,
	})
}

// assignWarm is the number of assign-search set-up searches.
const assignWarm = 16

func makeAssignSearch(seed int64) (*inputs, error) {
	// A design tool bounds the holistic iteration of each probe: an
	// unconverged probe is unschedulable, and a few probes of some
	// systems would otherwise run the default 1000 rounds.
	in := &inputs{kind: kindAssign, opt: httpd.OptionsSpec{MaxIterations: 32}}
	err := freshSystems(in, seed, assignWarm, assignSystem, func(sys *model.System, _ int) (call, error) {
		body, err := json.Marshal(&httpd.AssignRequest{System: spec.FromSystem(sys), Policy: "audsley", Options: in.opt})
		return call{body: body, sys: sys}, err
	})
	return in, err
}
