package spec

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// This file computes stable FNV-1a content hashes over a spec's semantic
// graph. The hash is a function of the normalized structure (canonical.go),
// so key order, whitespace, and every dead or defaultable field wash out;
// metadata — the job name, operator and explore names, branch labels, the
// allow list, and schema_version itself — is excluded by construction.
//
// Three granularities are exposed:
//
//   - Spec.Hash(): the whole-graph hash. Branch order, hints, costs,
//     selector and evaluator configuration are all included: two specs
//     with equal hashes schedule and compute identically.
//   - chain prefixes: one hash per (source, operator-prefix) pair, for
//     every position along the trunk and along each branch body. Two equal
//     chain hashes — across branches, retries, or separate jobs — name the
//     same intermediate result, which is what a cross-run memo table keys
//     on (ROADMAP item 3).
//   - branch sub-graphs: each explore branch's body hashed with its
//     parameters resolved through ParamKey, seeded by the incoming chain
//     prefix. Equal branch hashes inside one explore prove the branches
//     compute the same result (the dupbranch rule in internal/plan).
//
// ParamKey indirection is resolved before hashing: a filter written with
// {"paramKey": "limit"} under params {"limit": 2} hashes identically to
// the same filter written with {"limit": 2}, because the engine computes
// the same thing for both.

// Hash is a 64-bit FNV-1a content hash of a semantic (sub-)graph.
type Hash uint64

// String renders the hash as fixed-width hex.
func (h Hash) String() string { return fmt.Sprintf("%016x", uint64(h)) }

// MarshalJSON renders the hash as its hex string, so reports survive JSON
// round-trips through readers that truncate 64-bit integers.
func (h Hash) MarshalJSON() ([]byte, error) { return []byte(`"` + h.String() + `"`), nil }

// UnmarshalJSON parses the hex form written by MarshalJSON.
func (h *Hash) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return fmt.Errorf("spec: bad hash %q: %w", s, err)
	}
	*h = Hash(v)
	return nil
}

// ChainHash names one (operator-prefix, source) pair: the semantic
// identity of the intermediate result produced at Path.
type ChainHash struct {
	// Path locates the step in the spec, e.g. "pipeline[1].explore.branch[2].body[0]".
	Path string `json:"path"`
	// Hash identifies the result computed by the chain from the source
	// through this step, parameters resolved.
	Hash Hash `json:"hash"`
}

// BranchHash is the resolved sub-graph hash of one explore branch.
type BranchHash struct {
	// ExplorePath locates the explore, e.g. "pipeline[1].explore".
	ExplorePath string `json:"explorePath"`
	// Branch is the branch index; Label is its (unhashed) label, carried
	// for diagnostics only.
	Branch int    `json:"branch"`
	Label  string `json:"label"`
	// Hash is the branch body's hash, seeded by the chain prefix entering
	// the explore and resolved against the branch's params.
	Hash Hash `json:"hash"`
}

// HashReport is the full hash surface of one spec.
type HashReport struct {
	// Spec is the whole-graph content hash.
	Spec Hash `json:"spec"`
	// Chains lists the prefix hash at every operator position, trunk and
	// branch bodies alike, in document order.
	Chains []ChainHash `json:"chains"`
	// Branches lists every explore branch's resolved sub-graph hash, in
	// document order.
	Branches []BranchHash `json:"branches"`
	// OpChains holds one chain-prefix hash per compiled operator, in the
	// builder's operator-creation order (source, then per step: the op
	// itself; each iterate round; an explore, its branch bodies in branch
	// order, then its choose). OpChains[i] is the semantic identity of
	// operator i's output dataset, which is what the durable checkpoint
	// store (internal/ckptstore) keys on. Excluded from the serialized
	// report: it is an engine-side index, not part of the canonical hash
	// surface.
	OpChains []Hash `json:"-"`
}

// Hash returns the spec's whole-graph semantic content hash.
func (s *Spec) Hash() Hash {
	return s.HashReport().Spec
}

// HashReport computes the whole-graph hash plus every chain-prefix and
// branch sub-graph hash.
func (s *Spec) HashReport() *HashReport {
	return HashNormalized(s.normalized())
}

// HashNormalized is HashReport for a caller that already holds
// n = s.Normalized() — the plan verifier reads the same structure — and so
// normalises once instead of twice. n must be the output of Normalized.
func HashNormalized(n *Spec) *HashReport {
	r := &HashReport{}
	w := newHasher(0)
	hashSource(w, n.Source)
	src := w.sum()
	r.Chains = append(r.Chains, ChainHash{Path: "source", Hash: src})
	r.OpChains = append(r.OpChains, src)
	hashSteps(w, n.Pipeline, nil, "pipeline", r)
	r.Spec = w.sum()
	return r
}

// fnv64 is an inline FNV-1a state. Unlike hash/fnv's hash.Hash64 it is a
// plain value, so a hasher can be snapshotted mid-stream — hashSteps
// forks per-iterate-round chain hashes off the pre-step state. Sums are
// bit-identical to fnv.New64a over the same bytes.
type fnv64 uint64

const (
	fnvOffset64 fnv64 = 14695981039346656037
	fnvPrime64  fnv64 = 1099511628211
)

func (h *fnv64) write(b []byte) {
	x := *h
	for _, c := range b {
		x ^= fnv64(c)
		x *= fnvPrime64
	}
	*h = x
}

// hasher streams tagged fields into FNV-1a. A non-zero seed folds a parent
// chain prefix in first, so sub-graph hashes compose with their context.
type hasher struct {
	buf   [8]byte
	sum64 fnv64
}

func newHasher(seed Hash) *hasher {
	w := &hasher{sum64: fnvOffset64}
	if seed != 0 {
		w.u64(uint64(seed))
	}
	return w
}

// clone snapshots the stream state, so a fork can fold divergent suffixes
// without disturbing the trunk.
func (w *hasher) clone() *hasher { return &hasher{sum64: w.sum64} }

func (w *hasher) sum() Hash { return Hash(w.sum64) }

func (w *hasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		w.buf[i] = byte(v >> (56 - 8*i))
	}
	w.sum64.write(w.buf[:])
}

func (w *hasher) str(s string) {
	w.u64(uint64(len(s)))
	w.sum64.write([]byte(s))
}

func (w *hasher) f64(v float64)  { w.u64(math.Float64bits(v)) }
func (w *hasher) i64(v int64)    { w.u64(uint64(v)) }
func (w *hasher) boolean(v bool) { w.u64(map[bool]uint64{false: 0, true: 1}[v]) }

func hashSource(w *hasher, src Source) {
	w.str("source")
	if src.File != "" {
		w.str("file")
		w.str(src.File)
	} else {
		w.str("synthetic")
		w.str(src.Distribution)
		w.i64(src.Seed)
	}
	w.i64(int64(src.Rows))
	w.i64(int64(src.Partitions))
	w.i64(src.VirtualBytes)
}

// hashSteps folds a normalized step sequence into w, resolving operator
// parameters against params, and records every chain prefix and branch
// sub-graph hash into r.
func hashSteps(w *hasher, steps []Step, params map[string]float64, path string, r *HashReport) {
	for i, st := range steps {
		stepPath := fmt.Sprintf("%s[%d]", path, i)
		switch {
		case st.Op != nil:
			hashOp(w, *st.Op, params)
			r.OpChains = append(r.OpChains, w.sum())
		case st.Iterate != nil:
			it := st.Iterate
			// The builder unrolls an iterate into Rounds operators; round
			// k's output is identified by the chain through k+1 rounds.
			// Forking from the pre-step state keeps the final round's
			// chain equal to the step's recorded chain hash below, so an
			// iterate's last checkpoint and its step-level identity agree.
			for k := 0; k < it.Rounds; k++ {
				rw := w.clone()
				rw.str("iterate")
				rw.i64(int64(k + 1))
				rw.f64(it.DivergeAboveMeanAbs)
				hashOp(rw, it.Op, params)
				r.OpChains = append(r.OpChains, rw.sum())
			}
			w.str("iterate")
			w.i64(int64(it.Rounds))
			w.f64(it.DivergeAboveMeanAbs)
			hashOp(w, it.Op, params)
		case st.Explore != nil:
			e := st.Explore
			prefix := w.sum()
			// The explore operator forwards its input, so its output
			// carries the incoming chain's identity.
			r.OpChains = append(r.OpChains, prefix)
			w.str("explore")
			w.i64(int64(len(e.Branches)))
			explorePath := stepPath + ".explore"
			for j, br := range e.Branches {
				bw := newHasher(prefix)
				hashSteps(bw, e.Body, br.Params, fmt.Sprintf("%s.branch[%d].body", explorePath, j), r)
				bh := bw.sum()
				r.Branches = append(r.Branches, BranchHash{
					ExplorePath: explorePath, Branch: j, Label: br.Label, Hash: bh,
				})
				w.u64(uint64(bh))
				if br.Hint != nil { // normalized() always fills it
					w.f64(*br.Hint)
				}
			}
			hashChoose(w, e.Choose)
			// The choose operator's output is the step's result.
			r.OpChains = append(r.OpChains, w.sum())
		}
		r.Chains = append(r.Chains, ChainHash{Path: stepPath, Hash: w.sum()})
	}
}

// hashOp folds one operator, with ParamKey indirection resolved so only
// effective parameter values reach the hash.
func hashOp(w *hasher, op OpStep, params map[string]float64) {
	w.str("op")
	w.str(op.Fn)
	resolve := func(def float64) float64 {
		if op.ParamKey != "" {
			if v, ok := params[op.ParamKey]; ok {
				return v
			}
		}
		return def
	}
	switch op.Fn {
	case "affine":
		w.f64(resolve(op.A))
		w.f64(op.B)
	case "filter-less", "filter-greater", "filter-absless":
		w.f64(resolve(op.Limit))
	}
	w.f64(op.CostPerMB)
	w.f64(op.FixedCost)
}

func hashChoose(w *hasher, c Choose) {
	w.str("choose")
	w.str(c.Evaluator)
	w.boolean(c.Monotone)
	w.boolean(c.Convex)
	w.f64(c.CostPerMB)
	sel := c.Selector
	w.str(sel.Kind)
	w.i64(int64(sel.K))
	w.f64(sel.Bound)
	w.boolean(sel.AtMost)
	w.f64(sel.Lo)
	w.f64(sel.Hi)
}
