// Package serve turns the simulator into a long-lived service: an HTTP API
// that accepts simulation specs (primitive x coherence policy x contention
// point in the paper's design space), runs them as internal/exper points on
// a bounded worker pool — each worker owning a dedicated machine it reuses
// across requests — and returns the measurements as JSON. Around the pool
// sit a sharded content-addressed LRU result cache (canonical spec hash ->
// encoded report, one independently locked shard per core), sharded
// single-flight coalescing so N concurrent identical requests cost one
// simulation, bounded-queue backpressure (429 + Retry-After), per-request
// deadlines, a batch sweep endpoint streaming NDJSON, and a metrics
// surface. cmd/dsmserve wires it to a listener; cmd/dsmload drives it.
//
// The /v1/sim request path does only the work its response uses. A POST
// spec in the flat form every client in this tree sends is decoded by a
// one-pass scanner, with encoding/json as the fallback for any other body;
// a cache hit writes the stored bytes without allocating; and a result's
// gzip variant is built on its first hit that asks for gzip, not when the
// result is cached.
//
// The cache is also externally visible: HEAD /v1/sim or ?probe=1 answers
// hit/miss from the cache without ever simulating. internal/fleet fronts N
// of these servers behind a consistent-hash router, which sends each spec
// to the one server that owns its key. Results enter the cache only
// through a simulation on this server; no endpoint accepts result bytes.
package serve

import (
	"crypto/sha256"
	"fmt"
	"strconv"

	"dsm/internal/core"
	"dsm/internal/exper"
	"dsm/internal/locks"
)

// Spec is one simulation request: which workload to run, on which
// primitive/policy configuration, at what scale. String-typed enums keep
// the wire format self-describing; ParseX helpers map them to the internal
// types. The zero value of every field selects a documented default, so
// `{}` is a valid spec (the reduced-scale lock-free counter under INV/FAP).
type Spec struct {
	App     string `json:"app,omitempty"`    // counter, tts, mcs, tclosure, locusroute, cholesky, msqueue, stack, rcu, tournament, dissemination
	Policy  string `json:"policy,omitempty"` // INV, UPD, UNC
	Prim    string `json:"prim,omitempty"`   // FAP, CAS, LLSC
	Variant string `json:"cas,omitempty"`    // INV, INVd, INVs (CAS implementation)
	LoadEx  bool   `json:"ldex,omitempty"`   // pair CAS with load_exclusive
	Drop    bool   `json:"drop,omitempty"`   // issue drop_copy after updates

	Procs      int     `json:"procs,omitempty"`  // simulated processors, 1-64 (default 16)
	Contention int     `json:"c,omitempty"`      // synthetic contention level (default 1)
	WriteRun   float64 `json:"a,omitempty"`      // synthetic average write-run length (default 1)
	Rounds     int     `json:"rounds,omitempty"` // synthetic barrier-separated rounds (default 6)
	Size       int     `json:"size,omitempty"`   // transitive-closure vertices (default 12)

	Seed uint64 `json:"seed,omitempty"` // 0 selects the per-app default seeds
}

// Scale limits keep one request's simulation cost bounded: the service is
// sized for interactive exploration, not unbounded batch jobs.
const (
	MaxProcs  = core.MaxNodes // the paper's machine
	MaxRounds = 256
	MaxSize   = 64
	maxWrun   = 64
)

// ParsePolicy maps a wire policy name to the internal coherence policy.
// (Forwarded from internal/exper, where the wire enums live.)
func ParsePolicy(s string) (core.Policy, error) { return exper.ParsePolicy(s) }

// ParsePrim maps a wire primitive name to the internal primitive family.
func ParsePrim(s string) (locks.Prim, error) { return exper.ParsePrim(s) }

// ParseVariant maps a wire CAS-variant name to the internal variant.
func ParseVariant(s string) (core.CASVariant, error) { return exper.ParseVariant(s) }

// Normalize validates the spec and returns its canonical form: defaults
// filled in, fields irrelevant to the selected application zeroed (so two
// requests that must produce the same result share one cache key), and all
// enums checked. It does not modify the receiver.
func (s Spec) Normalize() (Spec, error) {
	if s.App == "" {
		s.App = "counter"
	}
	app, err := exper.ParseApp(s.App)
	if err != nil {
		return s, err
	}
	// Pattern parameters apply to the synthetic counters and to every
	// workload-library structure; the real apps zero them so equivalent
	// requests share one cache key. Existing apps keep byte-identical
	// canonical forms (PatternDriven == Synthetic for them), so no cached
	// result is invalidated.
	patternDriven := app.PatternDriven()
	if s.Policy == "" {
		s.Policy = "INV"
	}
	if _, err := ParsePolicy(s.Policy); err != nil {
		return s, err
	}
	if s.Prim == "" {
		s.Prim = "FAP"
	}
	if _, err := ParsePrim(s.Prim); err != nil {
		return s, err
	}
	if s.Variant == "" {
		s.Variant = "INV"
	}
	if _, err := ParseVariant(s.Variant); err != nil {
		return s, err
	}
	if s.Procs == 0 {
		s.Procs = 16
	}
	if err := exper.CheckProcs(s.Procs); err != nil {
		return s, err
	}
	if patternDriven {
		if s.Contention == 0 {
			s.Contention = 1
		}
		if err := exper.CheckContention(s.Contention, s.Procs); err != nil {
			return s, err
		}
		if s.Contention == 1 {
			if s.WriteRun == 0 {
				s.WriteRun = 1
			}
			if exper.CheckWriteRun(s.WriteRun) != nil || s.WriteRun > maxWrun {
				return s, fmt.Errorf("write-run %g out of range 1-%d", s.WriteRun, maxWrun)
			}
		} else {
			// Write-run length only shapes the no-contention pattern.
			s.WriteRun = 0
		}
		if s.Rounds == 0 {
			s.Rounds = 6
		}
		if exper.CheckRounds(s.Rounds) != nil || s.Rounds > MaxRounds {
			return s, fmt.Errorf("rounds %d out of range 1-%d", s.Rounds, MaxRounds)
		}
	} else {
		s.Contention, s.WriteRun, s.Rounds = 0, 0, 0
	}
	if s.App == "tclosure" {
		if s.Size == 0 {
			s.Size = 12
		}
		if exper.CheckSize(s.Size) != nil || s.Size > MaxSize {
			return s, fmt.Errorf("size %d out of range 2-%d", s.Size, MaxSize)
		}
	} else {
		s.Size = 0
	}
	return s, nil
}

// Point maps a canonical spec to the exper point it requests. The spec
// must already be normalized; Point panics on enum values Normalize would
// have rejected.
func (s Spec) Point() exper.Point {
	return exper.Point{
		App: mustParse(exper.ParseApp(s.App)),
		Bar: exper.Bar{
			Policy:  mustParse(exper.ParsePolicy(s.Policy)),
			Prim:    mustParse(exper.ParsePrim(s.Prim)),
			Variant: mustParse(exper.ParseVariant(s.Variant)),
			LoadEx:  s.LoadEx,
			Drop:    s.Drop,
		},
		Scale:   exper.RunOpts{Procs: s.Procs, Rounds: s.Rounds, TCSize: s.Size},
		Pattern: exper.Pattern{Contention: s.Contention, WriteRun: s.WriteRun, Rounds: s.Rounds},
		Seed:    s.Seed,
	}
}

// mustParse unwraps a parse-helper result on an already-normalized spec,
// where a failure is a programming error, not bad input.
func mustParse[T ~uint8](v T, err error) T {
	if err != nil {
		panic("serve: run on unnormalized spec: " + err.Error())
	}
	return v
}

// keyTextMax bounds the rendered key text: every field at its widest
// (longest app name, 64-bit seed, shortest-form float) stays well under
// this, so appendKey's scratch buffer never spills to the heap.
const keyTextMax = 192

// appendKeyText appends the fixed-order canonical rendering of every spec
// field — the preimage of the content address — to dst. The rendering is
// pinned byte-for-byte to the fmt.Sprintf form earlier releases hashed
// (TestKeyTextMatchesFmt), because changing a single byte here would
// silently invalidate every cached result.
func (s *Spec) appendKeyText(dst []byte) []byte {
	dst = append(dst, "app="...)
	dst = append(dst, s.App...)
	dst = append(dst, " policy="...)
	dst = append(dst, s.Policy...)
	dst = append(dst, " prim="...)
	dst = append(dst, s.Prim...)
	dst = append(dst, " cas="...)
	dst = append(dst, s.Variant...)
	dst = append(dst, " ldex="...)
	dst = strconv.AppendBool(dst, s.LoadEx)
	dst = append(dst, " drop="...)
	dst = strconv.AppendBool(dst, s.Drop)
	dst = append(dst, " procs="...)
	dst = strconv.AppendInt(dst, int64(s.Procs), 10)
	dst = append(dst, " c="...)
	dst = strconv.AppendInt(dst, int64(s.Contention), 10)
	dst = append(dst, " a="...)
	dst = strconv.AppendFloat(dst, s.WriteRun, 'g', -1, 64)
	dst = append(dst, " rounds="...)
	dst = strconv.AppendInt(dst, int64(s.Rounds), 10)
	dst = append(dst, " size="...)
	dst = strconv.AppendInt(dst, int64(s.Size), 10)
	dst = append(dst, " seed="...)
	dst = strconv.AppendUint(dst, s.Seed, 10)
	return dst
}

// appendKey appends the spec's content address — 64 lowercase hex digits of
// the SHA-256 of the canonical rendering — to dst. With a dst of sufficient
// capacity the whole computation stays on the caller's stack, which is what
// lets the cache-hit request path resolve a key without allocating.
func (s *Spec) appendKey(dst []byte) []byte {
	var text [keyTextMax]byte
	sum := sha256.Sum256(s.appendKeyText(text[:0]))
	const hexdig = "0123456789abcdef"
	for _, b := range sum {
		dst = append(dst, hexdig[b>>4], hexdig[b&0xf])
	}
	return dst
}

// Key returns the content address of a canonical spec: the hex SHA-256 of
// a fixed-order rendering of every field. Two specs with the same key
// request byte-for-byte the same simulation result.
func (s Spec) Key() string {
	var buf [64]byte
	return string(s.appendKey(buf[:0]))
}
