// Package serve turns the simulator into a long-lived service: an HTTP API
// that accepts simulation specs (primitive x coherence policy x contention
// point in the paper's design space), runs them as internal/exper points on
// a bounded worker pool — each worker owning a dedicated machine it reuses
// across requests — and returns the measurements as JSON. Around the pool
// sit an LRU result cache (canonical spec JSON -> encoded report and its
// content address), single-flight coalescing (Flight, which the fleet
// router also uses) so N concurrent identical requests cost one simulation,
// bounded-queue backpressure (429 + Retry-After), per-request deadlines, a
// batch sweep endpoint streaming NDJSON, and a metrics surface. The cache
// and the in-flight table are each one map under one mutex: a request
// holds either for a map operation, against the milliseconds a simulation
// takes. cmd/dsmserve wires it to a listener; cmd/dsmload drives it.
//
// The /v1/sim request path does only the work its response uses. The
// handler dispatches on the exact path, with no pattern matching. A POST
// body that is already a spec's canonical JSON (Spec.AppendJSON, what the
// fleet router forwards) is answered by one map probe with the raw bytes,
// before any parsing. Any other POST spec in the flat form every client in
// this tree sends is decoded by a one-pass scanner, with encoding/json as
// the fallback for any other body; its cache hit is one map probe by the
// normalized spec's canonical JSON, with no hash. A hit writes the stored
// bytes without allocating, and a result's gzip variant is built on its
// first hit that asks for gzip, not when the result is cached.
//
// The cache is also externally visible: HEAD /v1/sim or ?probe=1 answers
// hit/miss from the cache without ever simulating. internal/fleet fronts N
// of these servers behind a consistent-hash router, which sends each spec
// to the one server that owns its key. Results enter the cache only
// through a simulation on this server; no endpoint accepts result bytes.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	"dsm/internal/exper"
)

// Spec is one simulation request: which workload to run, on which
// primitive/policy configuration, at what scale. String-typed enums keep
// the wire format self-describing; exper's ParseX helpers map them to the
// internal types. The zero value of every field selects a documented default, so
// `{}` is a valid spec (the reduced-scale lock-free counter under INV/FAP).
type Spec struct {
	App     string `json:"app,omitempty"`    // a wire name from exper's app table (exper.AppNames)
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
	MaxRounds = 256
	MaxSize   = 64
	maxWrun   = 64
)

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
	if s.Policy == "" {
		s.Policy = "INV"
	}
	if _, err := exper.ParsePolicy(s.Policy); err != nil {
		return s, err
	}
	if s.Prim == "" {
		s.Prim = "FAP"
	}
	if _, err := exper.ParsePrim(s.Prim); err != nil {
		return s, err
	}
	if s.Variant == "" {
		s.Variant = "INV"
	}
	if _, err := exper.ParseVariant(s.Variant); err != nil {
		return s, err
	}
	if s.Procs == 0 {
		s.Procs = 16
	}
	if err := exper.CheckProcs(s.Procs); err != nil {
		return s, err
	}
	// Fields the app's row in exper's app table says it does not read are
	// zeroed, so equivalent requests share one cache key.
	if app.PatternDriven() {
		if s.Contention == 0 {
			s.Contention = 1
		}
		if err := exper.CheckContention(s.Contention, s.Procs); err != nil {
			return s, err
		}
		if s.Contention == 1 && app.ReadsWriteRun() {
			if s.WriteRun == 0 {
				s.WriteRun = 1
			}
			if exper.CheckWriteRun(s.WriteRun) != nil || s.WriteRun > maxWrun {
				return s, fmt.Errorf("write-run %g out of range 1-%d", s.WriteRun, maxWrun)
			}
		} else {
			// Write-run length only shapes the no-contention pattern,
			// and only of the apps that read it.
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
	if app.ReadsSize() {
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
// this, so Key's stack buffer of this size never spills to the heap.
const keyTextMax = 192

// specJSONMax bounds a normalized spec's canonical JSON (AppendJSON), the
// key of the server's result cache and single-flight table: every field
// present at its widest (TestSpecJSONMax) stays under it, so a caller's
// stack buffer of this size never spills to the heap.
const specJSONMax = 192

// appendKeyText appends the fixed-order canonical rendering of every spec
// field, the preimage of the content address, to dst. The rendering is
// pinned byte-for-byte to the fmt.Sprintf form earlier releases hashed
// (TestKeyTextMatchesFmt), because changing a single byte here would
// silently change every published content address.
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
	dst = appendWriteRun(dst, s.WriteRun)
	dst = append(dst, " rounds="...)
	dst = strconv.AppendInt(dst, int64(s.Rounds), 10)
	dst = append(dst, " size="...)
	dst = strconv.AppendInt(dst, int64(s.Size), 10)
	dst = append(dst, " seed="...)
	dst = strconv.AppendUint(dst, s.Seed, 10)
	return dst
}

// appendWriteRun appends a write-run as %g renders it. Every canonical
// write-run but a fractional one is an integer in [0, 64], which AppendInt
// renders byte for byte as the shortest 'g' form does for any integer in
// [0, 1e6) without a sign bit; from 1e6 on 'g' switches to an exponent
// ("1e+06") and -0 prints as "-0", so those, like every other value, take
// AppendFloat.
func appendWriteRun(dst []byte, a float64) []byte {
	if a >= 0 && a < 1e6 && !math.Signbit(a) {
		if n := int64(a); float64(n) == a {
			return strconv.AppendInt(dst, n, 10)
		}
	}
	return strconv.AppendFloat(dst, a, 'g', -1, 64)
}

// Key returns the content address of a canonical spec: the hex SHA-256 of
// its key text. Two specs with the same key request byte-for-byte the same
// simulation result. The server computes it once per result, on the miss
// that simulates it, and serves it from the cache entry after that.
func (s Spec) Key() string {
	var text [keyTextMax]byte
	sum := sha256.Sum256(s.appendKeyText(text[:0]))
	var addr [2 * sha256.Size]byte
	hex.Encode(addr[:], sum[:])
	return string(addr[:])
}

// AppendJSON appends the JSON encoding of a normalized spec to dst: byte
// for byte what json.Marshal produces for it (FuzzSpecAppendJSON), without
// reflection. Normalize admits only the wire names of exper's tables,
// which need no escaping, and a write-run that is 0 or in [1, 64], which
// encoding/json formats as 'f' at the shortest precision. This is the
// spec's canonical JSON: the fleet router forwards every routed spec
// upstream in this form, and the server keys its result cache by it, so a
// request whose body is already canonical is answered from its raw bytes.
// That is exact because parsing and normalizing the canonical JSON of a
// normalized spec gives the same spec back (FuzzSpecAppendJSON), which
// also makes the encoding injective on normalized specs.
func (s *Spec) AppendJSON(dst []byte) []byte {
	open := len(dst)
	dst = append(dst, '{')
	for _, f := range [...]struct{ name, v string }{
		{"app", s.App}, {"policy", s.Policy}, {"prim", s.Prim}, {"cas", s.Variant},
	} {
		if f.v != "" {
			dst = append(jsonKey(dst, open, f.name), '"')
			dst = append(append(dst, f.v...), '"')
		}
	}
	if s.LoadEx {
		dst = append(jsonKey(dst, open, "ldex"), "true"...)
	}
	if s.Drop {
		dst = append(jsonKey(dst, open, "drop"), "true"...)
	}
	if s.Procs != 0 {
		dst = strconv.AppendInt(jsonKey(dst, open, "procs"), int64(s.Procs), 10)
	}
	if s.Contention != 0 {
		dst = strconv.AppendInt(jsonKey(dst, open, "c"), int64(s.Contention), 10)
	}
	if s.WriteRun != 0 {
		dst = strconv.AppendFloat(jsonKey(dst, open, "a"), s.WriteRun, 'f', -1, 64)
	}
	if s.Rounds != 0 {
		dst = strconv.AppendInt(jsonKey(dst, open, "rounds"), int64(s.Rounds), 10)
	}
	if s.Size != 0 {
		dst = strconv.AppendInt(jsonKey(dst, open, "size"), int64(s.Size), 10)
	}
	if s.Seed != 0 {
		dst = strconv.AppendUint(jsonKey(dst, open, "seed"), s.Seed, 10)
	}
	return append(dst, '}')
}

// jsonKey appends `"name":` to an object that began at dst[open], after a
// comma unless it is the object's first member.
func jsonKey(dst []byte, open int, name string) []byte {
	if len(dst) > open+1 {
		dst = append(dst, ',')
	}
	dst = append(append(dst, '"'), name...)
	return append(dst, '"', ':')
}
