package httpd

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"strings"

	"hsched/internal/analysis"
	"hsched/internal/model"
	"hsched/internal/spec"
)

// ContentTypeBinary is the media type of the canonical binary analyze
// codec. A request with this Content-Type carries a binaryReqHeader
// followed by the system's canonical wire bytes (model.System
// MarshalBinary); a request whose Accept contains it gets the binary
// response below instead of JSON. The point of the codec is not just
// smaller bodies: the system bytes hash directly to the service
// fingerprint, so a repeated system is recognised in the intern pool
// without any decoding at all.
const ContentTypeBinary = "application/x-hsched-bin"

// binaryVersion guards the transport framing (header + response
// layouts). It is deliberately separate from the model wire version:
// the system payload carries its own version word, so a model bump
// does not require a transport bump or vice versa.
const binaryVersion = 1

// Binary request layout — 48-byte options header, then the system:
//
//	u64  binaryVersion
//	u64  flags (bit 0 exact, 1 static, 2 tight_best_case,
//	            3 stop_at_deadline_miss, 4 bounds)
//	u64  workers
//	u64  max_iterations
//	u64  max_scenarios
//	f64  deadline_ms
//	...  model.System canonical wire bytes (to end of body)
//
// Binary response layout:
//
//	u64  binaryVersion
//	u64  flags (bit 0 schedulable, 1 converged, 2 stopped)
//	u64  iterations
//	u64  scenarios_pruned
//	u64  subtrees_pruned
//	f64  elapsed_ms
//	u64  transaction count N
//	N ×  ( f64 deadline, f64 response (+Inf = unschedulable),
//	       u64 schedulable )
//
// The response is always terse — the bounds flag only affects JSON
// responses. Errors are always JSON (ErrorResponse), whatever the
// Accept header says.
const binaryReqHeaderSize = 6 * 8

const (
	binaryReqFlagExact = 1 << iota
	binaryReqFlagStatic
	binaryReqFlagTight
	binaryReqFlagStopAtMiss
	binaryReqFlagBounds
)

const (
	binaryRespFlagSchedulable = 1 << iota
	binaryRespFlagConverged
	binaryRespFlagStopped
)

// isBinaryMedia reports whether a Content-Type or Accept header value
// selects the binary codec.
func isBinaryMedia(header string) bool {
	return strings.Contains(header, ContentTypeBinary)
}

// EncodeAnalyzeRequestBinary assembles a binary analyze request body:
// the options header followed by the system's canonical wire bytes.
// It is the client half of the codec (bench -codec binary, tests).
func EncodeAnalyzeRequestBinary(sys *model.System, o OptionsSpec) ([]byte, error) {
	var flags uint64
	for _, f := range []struct {
		on  bool
		bit uint64
	}{
		{o.Exact, binaryReqFlagExact},
		{o.Static, binaryReqFlagStatic},
		{o.TightBestCase, binaryReqFlagTight},
		{o.StopAtDeadlineMiss, binaryReqFlagStopAtMiss},
		{o.Bounds, binaryReqFlagBounds},
	} {
		if f.on {
			flags |= f.bit
		}
	}
	buf := make([]byte, 0, binaryReqHeaderSize)
	buf = binary.LittleEndian.AppendUint64(buf, binaryVersion)
	buf = binary.LittleEndian.AppendUint64(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(o.Workers))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(o.MaxIterations))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(o.MaxScenarios))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.DeadlineMS))
	return sys.AppendBinary(buf)
}

// decodeBinaryAnalyzeRequest splits a binary request body into its
// options block and the raw system wire bytes. The system bytes are
// not decoded — hashing them is the caller's fast path. Errors wrap
// spec.ErrInvalid (the request is at fault).
func decodeBinaryAnalyzeRequest(body []byte) (OptionsSpec, []byte, error) {
	if len(body) < binaryReqHeaderSize {
		return OptionsSpec{}, nil, fmt.Errorf("%w: binary request: %d bytes, need a %d-byte header",
			spec.ErrInvalid, len(body), binaryReqHeaderSize)
	}
	if v := binary.LittleEndian.Uint64(body); v != binaryVersion {
		return OptionsSpec{}, nil, fmt.Errorf("%w: binary request version %d, this build reads %d",
			spec.ErrInvalid, v, binaryVersion)
	}
	flags := binary.LittleEndian.Uint64(body[8:])
	o := OptionsSpec{
		Exact:              flags&binaryReqFlagExact != 0,
		Static:             flags&binaryReqFlagStatic != 0,
		TightBestCase:      flags&binaryReqFlagTight != 0,
		StopAtDeadlineMiss: flags&binaryReqFlagStopAtMiss != 0,
		Bounds:             flags&binaryReqFlagBounds != 0,
		Workers:            int(int64(binary.LittleEndian.Uint64(body[16:]))),
		MaxIterations:      int(int64(binary.LittleEndian.Uint64(body[24:]))),
		MaxScenarios:       int(int64(binary.LittleEndian.Uint64(body[32:]))),
		DeadlineMS:         math.Float64frombits(binary.LittleEndian.Uint64(body[40:])),
	}
	return o, body[binaryReqHeaderSize:], nil
}

// resolveBinarySystem turns a binary request's system wire bytes into
// the canonical resident *model.System and its fingerprint. The
// fingerprint is the SHA-256 of the wire bytes themselves (the model
// encoding is canonical, so the hash of the bytes IS the decoded
// system's Fingerprint) — an intern-pool hit therefore answers with
// zero decoding and zero validation, both already paid by the first
// request that installed the resident. A miss costs one binary
// unmarshal plus validation, then installs the result.
func (s *Server) resolveBinarySystem(sysBytes []byte) (*model.System, model.Fingerprint, error) {
	fp := model.Fingerprint(sha256.Sum256(sysBytes))
	if resident, ok := s.svc.Interned(fp); ok {
		s.binHits.Add(1)
		return resident, fp, nil
	}
	var dec model.System
	if err := dec.UnmarshalBinary(sysBytes); err != nil {
		return nil, fp, fmt.Errorf("%w: binary system: %w", spec.ErrInvalid, err)
	}
	if err := dec.Validate(); err != nil {
		return nil, fp, fmt.Errorf("%w: binary system: %w", spec.ErrInvalid, err)
	}
	return s.svc.InternFingerprinted(fp, &dec), fp, nil
}

// contentTypeBinaryValue is the preallocated header value slice:
// Header().Set allocates a fresh []string per call, which would be the
// last allocation on the binary hit path.
var contentTypeBinaryValue = []string{ContentTypeBinary}

// writeBinaryAnalyzeResponse renders the terse binary verdict. The
// encode buffer is pooled (net/http copies the bytes during Write, so
// the buffer is reusable as soon as Write returns) and the hit path
// allocates nothing.
func writeBinaryAnalyzeResponse(w http.ResponseWriter, res *analysis.Result, elapsedMS float64) {
	var flags uint64
	if res.Schedulable {
		flags |= binaryRespFlagSchedulable
	}
	if res.Converged {
		flags |= binaryRespFlagConverged
	}
	if res.StoppedAtGoal {
		flags |= binaryRespFlagStopped
	}
	pb := bufPool.Get().(*poolBuf)
	buf := pb.b[:0]
	buf = binary.LittleEndian.AppendUint64(buf, binaryVersion)
	buf = binary.LittleEndian.AppendUint64(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.Iterations))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.ScenariosPruned))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.SubtreesPruned))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(elapsedMS))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(res.Tasks)))
	for i := range res.Tasks {
		tr := &res.System.Transactions[i]
		endToEnd := res.Tasks[i][len(res.Tasks[i])-1].Worst
		sched := uint64(0)
		if res.MeetsDeadline(i) {
			sched = 1
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(tr.Deadline))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(endToEnd))
		buf = binary.LittleEndian.AppendUint64(buf, sched)
	}
	w.Header()["Content-Type"] = contentTypeBinaryValue
	w.WriteHeader(http.StatusOK)
	w.Write(buf) //nolint:errcheck // client gone; nothing to do
	pb.b = buf
	pb.release()
}

// DecodeAnalyzeResponseBinary parses a binary analyze response into
// the JSON response shape (Response nil when unbounded, like the JSON
// codec). It is the client half of the response codec.
func DecodeAnalyzeResponseBinary(body []byte) (*AnalyzeResponse, error) {
	const head = 7 * 8
	if len(body) < head {
		return nil, fmt.Errorf("httpd: binary response: %d bytes, need %d", len(body), head)
	}
	if v := binary.LittleEndian.Uint64(body); v != binaryVersion {
		return nil, fmt.Errorf("httpd: binary response version %d, this build reads %d", v, binaryVersion)
	}
	flags := binary.LittleEndian.Uint64(body[8:])
	resp := &AnalyzeResponse{
		Schedulable:     flags&binaryRespFlagSchedulable != 0,
		Converged:       flags&binaryRespFlagConverged != 0,
		Stopped:         flags&binaryRespFlagStopped != 0,
		Iterations:      int(int64(binary.LittleEndian.Uint64(body[16:]))),
		ScenariosPruned: int64(binary.LittleEndian.Uint64(body[24:])),
		SubtreesPruned:  int64(binary.LittleEndian.Uint64(body[32:])),
		ElapsedMS:       math.Float64frombits(binary.LittleEndian.Uint64(body[40:])),
	}
	n := binary.LittleEndian.Uint64(body[48:])
	if rest := uint64(len(body) - head); n > rest/24 {
		return nil, fmt.Errorf("httpd: binary response: %d transactions exceed %d remaining bytes", n, rest)
	}
	if uint64(len(body)-head) != n*24 {
		return nil, fmt.Errorf("httpd: binary response: %d trailing bytes", uint64(len(body)-head)-n*24)
	}
	for i := uint64(0); i < n; i++ {
		off := head + int(i)*24
		response := math.Float64frombits(binary.LittleEndian.Uint64(body[off+8:]))
		resp.Transactions = append(resp.Transactions, TransactionVerdict{
			Deadline:    math.Float64frombits(binary.LittleEndian.Uint64(body[off:])),
			Response:    fin(response),
			Schedulable: binary.LittleEndian.Uint64(body[off+16:]) == 1,
		})
	}
	return resp, nil
}
