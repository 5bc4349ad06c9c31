package machine

// ControlConfig is the single typed control-speculation model: it replaces
// the per-package BranchPenalty scalars that used to be duplicated across
// baseline, both core engines, conform, and serve. The zero value
// reproduces the pre-refactor machine exactly — a free taken branch
// (BranchPenalty 0) and no modeled direction predictor — so existing
// configurations and goldens are unchanged by construction.
//
// Two regimes coexist:
//
//   - Branch == nil: control flow is abstract. BranchPenalty is the only
//     live field — the serial-recovery machine's taken-branch cost, the
//     same scalar the paper's [4] comparison charges.
//   - Branch != nil: a direction predictor (predict.BranchPredictor) is
//     modeled in both engines. Every conditional branch consults it;
//     Redirect cycles are charged per taken branch (the fetch bubble), and
//     a mispredicted direction costs Flush cycles and flushes the
//     terminating block's unresolved LdPred/CCB state (DESIGN.md §15).

import (
	"strconv"
	"strings"

	"vliwvp/internal/predict"
)

// ControlConfig parameterizes control speculation. The struct is
// comparable (pointer + ints), so "is this the zero value" and "did the
// config change since last run" are plain == checks.
type ControlConfig struct {
	// BranchPenalty is the cost in cycles of each taken control transfer
	// in the serial-recovery machine (2*BranchPenalty per mispredict: into
	// and out of the compensation block). Zero is legal and means free
	// transfers.
	BranchPenalty int
	// Redirect is the fetch-redirect bubble in cycles charged per taken
	// branch when a direction predictor is modeled. Zero selects
	// DefaultRedirectLat; the field is inert while Branch is nil.
	Redirect int
	// Flush is the misprediction penalty in cycles when a direction
	// predictor is modeled. Zero selects DefaultFlushLat; inert while
	// Branch is nil.
	Flush int
	// Branch selects the direction predictor (predict.ParseBranch specs:
	// taken, nottaken, bimodal:bits=N, tage:hist=H,tables=T,bits=B).
	// Nil models no predictor — the legacy flat-penalty machine.
	Branch *predict.BranchConfig
}

// Default control-speculation latencies, active only when a direction
// predictor is modeled.
const (
	DefaultRedirectLat = 1
	DefaultFlushLat    = 3
)

// DefaultControl is the paper's charitable serial-recovery setting: a
// one-cycle taken-branch penalty, no modeled predictor.
func DefaultControl() ControlConfig { return ControlConfig{BranchPenalty: 1} }

// Dynamic reports whether a direction predictor is modeled.
func (c ControlConfig) Dynamic() bool { return c.Branch != nil }

// RedirectLat is the effective per-taken-branch fetch bubble: zero unless
// a predictor is modeled, then Redirect with the package default.
func (c ControlConfig) RedirectLat() int {
	if c.Branch == nil {
		return 0
	}
	if c.Redirect > 0 {
		return c.Redirect
	}
	return DefaultRedirectLat
}

// FlushLat is the effective misprediction penalty: zero unless a
// predictor is modeled, then Flush with the package default.
func (c ControlConfig) FlushLat() int {
	if c.Branch == nil {
		return 0
	}
	if c.Flush > 0 {
		return c.Flush
	}
	return DefaultFlushLat
}

// Validate checks every parameter range; branch-predictor errors are the
// predictor's own typed *predict.ConfigError.
func (c ControlConfig) Validate() error {
	fail := func(field string, value int, reason string) error {
		return &ConfigError{Config: c.Key(), Field: field, Value: value, Reason: reason}
	}
	if c.BranchPenalty < 0 || c.BranchPenalty > 64 {
		return fail("BranchPenalty", c.BranchPenalty, "must be between 0 and 64")
	}
	if c.Redirect < 0 || c.Redirect > 64 {
		return fail("Redirect", c.Redirect, "must be between 0 and 64")
	}
	if c.Flush < 0 || c.Flush > 256 {
		return fail("Flush", c.Flush, "must be between 0 and 256")
	}
	return c.Branch.Validate()
}

// Key renders the canonical cache-key form: the branch penalty plus, when
// a predictor is modeled, its spec and any non-default latencies, in a
// fixed order. The zero value's key is "bp=0". Pass fingerprints and
// baseline-run caches embed this key, so its format is load-bearing.
func (c ControlConfig) Key() string {
	var sb strings.Builder
	sb.WriteString("bp=")
	sb.WriteString(strconv.Itoa(c.BranchPenalty))
	if c.Branch != nil {
		sb.WriteString(",branch=")
		sb.WriteString(c.Branch.Key())
		if c.Flush != 0 {
			sb.WriteString(",flush=")
			sb.WriteString(strconv.Itoa(c.Flush))
		}
		if c.Redirect != 0 {
			sb.WriteString(",redir=")
			sb.WriteString(strconv.Itoa(c.Redirect))
		}
	}
	return sb.String()
}
