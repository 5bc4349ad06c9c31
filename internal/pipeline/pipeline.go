// Package pipeline is the single spine every compile flow in this
// repository runs on: a pass manager where each IR transformation —
// lowering, optimization, if-conversion, region formation, value
// profiling, speculation insertion, VLIW scheduling — is a named Pass with
// a uniform Run(*Ctx, *ir.Program) error interface, composed into
// declarative Plans.
//
// The façade (vliwvp.System), the experiment harness (internal/exp and its
// ablation variants) and the metamorphic conformance suite
// (internal/conform) all describe their compile flows as Plans and execute
// them through a Manager, which provides uniformly what each of those
// callers used to hand-roll:
//
//   - per-pass ir.Validate: structure-changing passes are always checked
//     (matching the historical validation points); Manager.ValidateEach
//     extends the check to every pass and defaults to on under `go test`
//     (flag-controlled in vpexp via -validate-ir).
//   - per-pass observability: an optional obs.PassSink receives one typed
//     event per pass (duration, cache disposition, failure), preserving
//     the zero-allocation no-sink guarantee of the simulator's event
//     layer.
//   - per-pass memoization: cacheable prefixes of a plan are memoized in
//     an internal/exp/cache single-flight cache under content-hash keys,
//     one entry per pass, so plans that share a prefix (an ablation sweep,
//     the conformance lattice, the experiment harness) reuse partial
//     compiles instead of whole-plan cache entries. A failing pass leaves
//     no cache entry at all.
//   - post-pass IR dumps for debugging (vpexp -dump-ir).
//
// Errors are reported as *PassError, naming the plan and the offending
// pass.
package pipeline

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vliwvp/internal/core"
	"vliwvp/internal/exp/cache"
	"vliwvp/internal/ir"
	"vliwvp/internal/machine"
	"vliwvp/internal/obs"
	"vliwvp/internal/profile"
	"vliwvp/internal/sched"
	"vliwvp/internal/speculate"
)

// Ctx is the state a plan threads through its passes. Passes read the
// artifacts earlier passes produced and publish their own; Prog is also
// handed to each pass's Run as the explicit program argument.
type Ctx struct {
	// Source is the VL source text the lower pass compiles (plans rooted
	// at an already-lowered program leave it empty and set Prog).
	Source string
	// Key, when non-empty, enables per-pass memoization: it must
	// fingerprint the plan's input content (e.g. a source hash). Derived
	// cache keys append each pass's name and configuration fingerprint.
	Key string
	// Machine is the target description back-end passes require.
	Machine *machine.Desc

	// Prog is the working program. Passes mutate it in place or replace
	// it (the speculation pass publishes its transformed clone).
	Prog *ir.Program
	// Prof is the value/frequency profile (set by the profile pass).
	Prof *profile.Profile
	// Spec is the speculation pass's full result.
	Spec *speculate.Result
	// Schemes maps prediction-site IDs to their predictor scheme
	// (derived from Spec by the speculation pass).
	Schemes map[int]profile.Scheme
	// Sched is the whole-program VLIW schedule (set by the schedule
	// pass).
	Sched *sched.ProgSched
	// Image is the decoded simulator image (set by the decode pass).
	Image *core.Image
	// Shared reports that Prog/Prof are cache-shared state: read-only,
	// potentially referenced by other goroutines and configurations.
	Shared bool
}

// Pass is one named IR transformation.
type Pass interface {
	// Name is the pass's stable identifier (cache keys, events, errors).
	Name() string
	// Run executes the pass. p is ctx.Prog at entry (nil only for the
	// plan's root pass); passes that rebuild the program must publish it
	// on ctx.
	Run(ctx *Ctx, p *ir.Program) error
}

// The optional capability interfaces below refine how the manager treats
// a pass; absence picks the conservative default.

// cacheable passes are pure functions of the plan input and their
// fingerprint, and produce only (Prog, Prof) state — the manager may
// memoize the pass's product and share it across plans and goroutines.
type cacheable interface{ Cacheable() bool }

// fingerprinted passes contribute their configuration to cache keys.
type fingerprinted interface{ Fingerprint() string }

// structural passes change IR structure; ir.Validate always runs after
// them, regardless of Manager.ValidateEach (these are the validation
// points the pre-pipeline code hardwired).
type structural interface{ Structural() bool }

// mutator passes modify the incoming program in place. After restoring a
// cache-shared prefix the manager clones before running one; passes that
// only read (schedule) or clone internally (speculate) opt out.
type mutator interface{ Mutates() bool }

func isCacheable(p Pass) bool {
	c, ok := p.(cacheable)
	return ok && c.Cacheable()
}

func fingerprintOf(p Pass) string {
	if f, ok := p.(fingerprinted); ok {
		return p.Name() + "=" + f.Fingerprint()
	}
	return p.Name()
}

func isStructural(p Pass) bool {
	s, ok := p.(structural)
	return ok && s.Structural()
}

func mutates(p Pass) bool {
	m, ok := p.(mutator)
	return !ok || m.Mutates()
}

// Plan is a named, ordered pass composition.
type Plan struct {
	Name   string
	Passes []Pass
}

// Key derives the cumulative cache key of the plan's first n passes over
// a content-hash base: base + "/" + each pass's name=fingerprint. Two
// plans agreeing on a prefix share its per-pass cache entries.
func (pl Plan) Key(base string, n int) string {
	for _, p := range pl.Passes[:n] {
		base += "/" + fingerprintOf(p)
	}
	return base
}

// PassError reports a failing pass: which plan, which pass, at which
// position, and whether the failure was the between-pass IR validator
// rather than the pass itself.
type PassError struct {
	Plan  string
	Pass  string
	Index int
	// Validation marks an ir.Validate failure on the pass's output (the
	// pass "succeeded" but produced invalid IR).
	Validation bool
	Err        error
}

// Error names the offending pass.
func (e *PassError) Error() string {
	if e.Validation {
		return fmt.Sprintf("pipeline: plan %q pass %q (#%d): invalid IR after pass: %v",
			e.Plan, e.Pass, e.Index, e.Err)
	}
	return fmt.Sprintf("pipeline: plan %q pass %q (#%d): %v", e.Plan, e.Pass, e.Index, e.Err)
}

// Unwrap exposes the underlying failure.
func (e *PassError) Unwrap() error { return e.Err }

// IsValidation reports whether err is a between-pass IR validation
// failure (consumers like the conformance harness treat those as
// invariant violations of the pass under test, not harness breakage).
func IsValidation(err error) bool {
	var pe *PassError
	return errors.As(err, &pe) && pe.Validation
}

// DumpFunc receives the IR after each pass (vpexp -dump-ir). Dumping
// bypasses the per-pass cache so every pass genuinely runs.
type DumpFunc func(plan, pass string, index int, prog *ir.Program)

// Manager executes plans. The zero value is ready to use; NewManager
// additionally turns ValidateEach on under `go test`.
//
// A Manager is safe for concurrent Run calls (the experiment harness
// shares one across its worker pool) as long as Sink and Dump are.
type Manager struct {
	// ValidateEach runs ir.Validate after every pass. Structural passes
	// are validated regardless.
	ValidateEach bool
	// Cache enables per-pass memoization of cacheable plan prefixes for
	// ctx.Key-carrying runs.
	Cache *cache.Cache
	// Sink receives one obs.PassEvent per pass (nil: zero-cost).
	Sink obs.PassSink
	// Dump receives post-pass IR (nil: disabled). Non-nil disables the
	// cache so dumps reflect a full recompute.
	Dump DumpFunc
}

// NewManager returns a Manager with the testing default: between-pass
// validation on under `go test`, off otherwise (vpexp -validate-ir turns
// it on in production binaries).
func NewManager() *Manager {
	return &Manager{ValidateEach: testing.Testing()}
}

// state is the memoized product of a cacheable plan prefix. Immutable
// after publication; shared across goroutines and configurations.
type state struct {
	prog *ir.Program
	prof *profile.Profile
}

// Run executes the plan over ctx. When ctx.Key is set and a cache is
// attached, the longest cacheable prefix is served per-pass from the
// cache (computing and publishing missing entries); remaining passes run
// live. On success ctx holds the final artifacts; on failure ctx is
// unspecified and the error is a *PassError.
func (m *Manager) Run(plan Plan, ctx *Ctx) error {
	start := 0
	if m.Cache != nil && ctx.Key != "" && m.Dump == nil {
		n := 0
		for n < len(plan.Passes) && isCacheable(plan.Passes[n]) {
			n++
		}
		if n > 0 {
			st, err := m.prefixState(plan, n, ctx)
			if err != nil {
				return err
			}
			ctx.Prog, ctx.Prof, ctx.Shared = st.prog, st.prof, true
			start = n
		}
	}
	for i := start; i < len(plan.Passes); i++ {
		p := plan.Passes[i]
		if ctx.Shared && mutates(p) {
			ctx.Prog = ctx.Prog.Clone()
			if ctx.Prof != nil {
				ctx.Prof = ctx.Prof.Clone()
			}
			ctx.Shared = false
		}
		if err := m.runPass(plan, i, ctx, false); err != nil {
			return err
		}
	}
	return nil
}

// prefixState returns the memoized state after plan.Passes[:n], computing
// missing entries recursively: the entry for pass i clones the state for
// passes [:i], runs pass i on the clone, and publishes the result
// immutably. A failing pass forgets its key, so no entry — not even a
// memoized error — outlives a failed computation.
func (m *Manager) prefixState(plan Plan, n int, ctx0 *Ctx) (*state, error) {
	key := plan.Key(ctx0.Key, n)
	computed := false
	v, err := m.Cache.Do(key, func() (any, error) {
		computed = true
		cur := &Ctx{Source: ctx0.Source, Machine: ctx0.Machine}
		if n > 1 {
			prev, err := m.prefixState(plan, n-1, ctx0)
			if err != nil {
				return nil, err
			}
			cur.Prog = prev.prog.Clone()
			if prev.prof != nil {
				cur.Prof = prev.prof.Clone()
			}
		}
		if err := m.runPass(plan, n-1, cur, false); err != nil {
			return nil, err
		}
		return &state{prog: cur.Prog, prof: cur.Prof}, nil
	})
	if err != nil {
		m.Cache.Forget(key)
		return nil, err
	}
	st := v.(*state)
	if m.Sink != nil && !computed {
		// Narrate the cache-served prefix end so traces show the
		// disposition; passes that actually ran narrated from runPass.
		m.emit(plan, n-1, 0, true, nil)
	}
	return st, nil
}

// runPass executes one pass with validation, dump, and event handling.
func (m *Manager) runPass(plan Plan, i int, ctx *Ctx, fromCache bool) error {
	p := plan.Passes[i]
	var t0 time.Time
	if m.Sink != nil {
		t0 = time.Now()
	}
	err := p.Run(ctx, ctx.Prog)
	validation := false
	if err == nil && (m.ValidateEach || isStructural(p)) && ctx.Prog != nil {
		if verr := ctx.Prog.Validate(); verr != nil {
			err, validation = verr, true
		}
	}
	if m.Sink != nil {
		m.emit(plan, i, time.Since(t0), fromCache, err)
	}
	if err != nil {
		return &PassError{Plan: plan.Name, Pass: p.Name(), Index: i, Validation: validation, Err: err}
	}
	if m.Dump != nil && ctx.Prog != nil {
		m.Dump(plan.Name, p.Name(), i, ctx.Prog)
	}
	return nil
}

// emit builds and sends one pass event. Only called with a sink attached,
// so the no-sink path never constructs an event (zero allocations).
func (m *Manager) emit(plan Plan, i int, d time.Duration, hit bool, err error) {
	e := obs.PassEvent{
		Plan:     plan.Name,
		Pass:     plan.Passes[i].Name(),
		Index:    i,
		Duration: d,
		CacheHit: hit,
	}
	if err != nil {
		e.Err = err.Error()
	}
	m.Sink.PassEvent(&e)
}
