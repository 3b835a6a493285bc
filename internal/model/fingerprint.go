package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
)

// Fingerprint is a stable identity of a System: a SHA-256 digest over a
// canonical byte encoding of every analysis-relevant field — platform
// parameters, transaction periods and deadlines, and per-task WCET,
// BCET, offset, jitter, priority, platform mapping and blocking, plus
// all names. Two systems have equal fingerprints iff they are
// value-identical, and the encoding uses the exact float64 bit
// patterns, so a JSON round trip through package spec (which preserves
// float values exactly) preserves the fingerprint. It is the cache and
// shard key of the analysis service (package service).
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as hex (shortened to 16 digits, the
// form used in logs and cache-stats output).
func (f Fingerprint) String() string { return hex.EncodeToString(f[:8]) }

// Shard maps the fingerprint onto one of n shards (n ≥ 1). The
// digest's uniformity makes the assignment balanced for any workload.
func (f Fingerprint) Shard(n int) int {
	return int(binary.LittleEndian.Uint64(f[:8]) % uint64(n))
}

// fingerprintVersion is the digest's historical name for wireVersion:
// since the fingerprint is the SHA-256 of the exact MarshalBinary byte
// stream, the two versions are one constant and can never drift.
//
// BUMP CHECKLIST — changing the encoding (adding a model field,
// reordering, resizing) means bumping wireVersion, and a bump changes
// every fingerprint and every persisted wire body at once. When you
// bump: (1) update the layout comment in wire.go and the README "Wire
// format" table, (2) re-record the golden bytes in
// TestSystemWireGoldenBytes (which locks this constant too), (3) keep
// UnmarshalBinary returning ErrWireVersion for version 1 bytes unless
// you implement explicit back-decoding, and (4) expect every
// service-level cache key and intern-pool entry to turn over.
const fingerprintVersion = wireVersion

// fpBuf wraps the encode buffer Fingerprint hashes; pooling it keeps
// the analysis service's memo-hit path — whose only per-query encoding
// work is this one fingerprint — allocation-free.
type fpBuf struct{ b []byte }

var fpBufPool = sync.Pool{New: func() any { return new(fpBuf) }}

// Fingerprint computes the system's canonical fingerprint: the SHA-256
// of the system's canonical wire encoding (see wire.go), so encoding
// and hashing are one buffer pass and the wire identity of a system is
// its cache identity — a server can fingerprint a binary request by
// hashing the body bytes without decoding them. The cost is
// microseconds even for large systems, negligible next to an analysis,
// so callers may recompute it freely rather than caching it alongside
// the system. The encode buffer is pooled and the call does not
// allocate in steady state.
func (s *System) Fingerprint() Fingerprint {
	bb := fpBufPool.Get().(*fpBuf)
	bb.b = s.appendBinary(bb.b[:0])
	fp := Fingerprint(sha256.Sum256(bb.b))
	fpBufPool.Put(bb)
	return fp
}

// txFingerprintVersion guards the canonical per-transaction encoding,
// independently of the whole-system version: the two encodings cover
// different field sets (the transaction one omits names) and must
// never alias.
const txFingerprintVersion = 1

// Fingerprint computes the transaction's analysis fingerprint: a
// digest over every field the holistic schedulability analysis reads —
// period, deadline and per-task WCET, BCET, priority, platform mapping
// and blocking, plus the external release offset and jitter of the
// first task. Two classes of fields are deliberately excluded:
//
//   - names, which only label reports;
//   - the offsets and jitters of non-initial tasks, which the holistic
//     iteration derives from predecessor response times (Eq. 18) and
//     overwrites before the first round — they are outputs, not inputs.
//
// Two transactions with equal fingerprints are therefore
// interchangeable as far as the holistic analysis's computed bounds
// are concerned — including a transaction read back from a converged
// Result, whose derived offsets differ from the spec's. That is
// exactly the equivalence Diff and the incremental re-analysis path
// need. Platform *parameters* are not covered (only the indices); Diff
// reports platform changes separately.
func (tr *Transaction) Fingerprint() Fingerprint {
	buf := make([]byte, 0, 8*(4+7*len(tr.Tasks)))
	buf = appendU64(buf, txFingerprintVersion)
	buf = appendF64(buf, tr.Period)
	buf = appendF64(buf, tr.Deadline)
	buf = appendU64(buf, uint64(len(tr.Tasks)))
	for j := range tr.Tasks {
		t := &tr.Tasks[j]
		buf = appendF64(buf, t.WCET)
		buf = appendF64(buf, t.BCET)
		if j == 0 {
			buf = appendF64(buf, t.Offset)
			buf = appendF64(buf, t.Jitter)
		} else {
			buf = appendF64(buf, 0)
			buf = appendF64(buf, 0)
		}
		buf = appendU64(buf, uint64(int64(t.Priority)))
		buf = appendU64(buf, uint64(int64(t.Platform)))
		buf = appendF64(buf, t.Blocking)
	}
	return sha256.Sum256(buf)
}
