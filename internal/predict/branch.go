package predict

// Branch-direction prediction: the control half of the combined
// control+value speculation model (Mitrevski/Gušev framing, PAPERS.md).
// BranchConfig mirrors Config for the value axis — one parsed grammar
// ("name" or "name:key=val,..."), typed *ConfigError rejections, and a
// canonical Key() safe to embed in compiled-plan cache keys — and
// BranchPredictor is the pooled runtime structure both engines share.
//
// Two baselines and a TAGE-style predictor are modeled:
//
//	taken / nottaken   static direction, no table state
//	bimodal:bits=N     2^N-entry PC-indexed table of direction +
//	                   saturating confidence (the classic Smith predictor,
//	                   expressed with the same ConfCounter the LdPred
//	                   confidence gate uses)
//	tage:hist=H,tables=T,bits=B
//	                   T tagged components indexed by a hash of the PC and
//	                   a geometrically growing slice of global history
//	                   (up to H bits), longest tag match provides, bimodal
//	                   base backstops — the direction-predictor analogue of
//	                   the VTAGE value predictor in vtage.go
//
// Confidence in every table entry is a predict.ConfCounter: branch
// confidence and LdPred gating deliberately share one mechanism.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// BranchConfig names and parameterizes the branch-direction predictor a
// simulation's control-speculation model runs with. A nil *BranchConfig
// means no modeled predictor (the legacy flat-penalty machine).
type BranchConfig struct {
	// Scheme is the stock scheme name: "taken", "nottaken", "bimodal", or
	// "tage".
	Scheme string

	// BimodalBits sizes the bimodal table at 2^bits entries ("bimodal",
	// and the TAGE base table); zero means DefaultBimodalBits.
	BimodalBits int

	// TageHist is the longest component's global-history length in bits
	// ("tage"); zero means DefaultBranchHist.
	TageHist int
	// TageTables is the number of tagged components ("tage"); zero means
	// DefaultBranchTables.
	TageTables int
	// TageBits sizes each tagged component at 2^bits entries ("tage");
	// zero means DefaultBranchTagBits.
	TageBits int
}

// Stock branch scheme names, in the order user-facing messages list them.
var stockBranchSchemes = []string{"taken", "nottaken", "bimodal", "tage"}

// StockBranchNames returns the accepted branch scheme names for error
// messages and request validation.
func StockBranchNames() []string {
	out := make([]string, len(stockBranchSchemes))
	copy(out, stockBranchSchemes)
	return out
}

func knownBranchScheme(name string) bool {
	for _, s := range stockBranchSchemes {
		if s == name {
			return true
		}
	}
	return false
}

// branchParamApplies maps each spec key to the schemes it parameterizes.
var branchParamApplies = map[string][]string{
	"bits":   {"bimodal", "tage"},
	"hist":   {"tage"},
	"tables": {"tage"},
}

// ParseBranch decodes a branch-predictor spec of the form "name" or
// "name:key=val,key=val". Accepted keys: bits (bimodal, tage), hist and
// tables (tage). Errors are *ConfigError values naming the field, never a
// panic, for any input bytes.
func ParseBranch(spec string) (*BranchConfig, error) {
	name, params, _ := strings.Cut(spec, ":")
	if !knownBranchScheme(name) {
		return nil, &ConfigError{Config: spec, Field: "Scheme", Value: name,
			Reason: "is not a stock branch scheme (" + strings.Join(stockBranchSchemes, ", ") + ")"}
	}
	c := &BranchConfig{Scheme: name}
	if params == "" {
		if strings.Contains(spec, ":") {
			return nil, &ConfigError{Config: spec, Field: "Params", Value: "",
				Reason: "empty parameter list after ':'"}
		}
		return c, c.Validate()
	}
	seen := map[string]bool{}
	for _, kv := range strings.Split(params, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok || key == "" {
			return nil, &ConfigError{Config: spec, Field: "Params", Value: kv,
				Reason: "is not key=value"}
		}
		applies, known := branchParamApplies[key]
		if !known {
			return nil, &ConfigError{Config: spec, Field: "Params", Value: key,
				Reason: "is not a known parameter (bits, hist, tables)"}
		}
		if seen[key] {
			return nil, &ConfigError{Config: spec, Field: "Params", Value: key,
				Reason: "given more than once"}
		}
		seen[key] = true
		ok = false
		for _, s := range applies {
			if s == name {
				ok = true
				break
			}
		}
		if !ok {
			return nil, &ConfigError{Config: spec, Field: "Params", Value: key,
				Reason: "does not apply to scheme " + strconv.Quote(name)}
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return nil, &ConfigError{Config: spec, Field: key, Value: val,
				Reason: "is not an integer"}
		}
		switch key {
		case "bits":
			if name == "tage" {
				c.TageBits = n
			} else {
				c.BimodalBits = n
			}
		case "hist":
			c.TageHist = n
		case "tables":
			c.TageTables = n
		}
	}
	if err := c.Validate(); err != nil {
		if ce, isCE := err.(*ConfigError); isCE {
			ce.Config = spec // report the spec as written, not the normalized name
		}
		return nil, err
	}
	return c, nil
}

// Validate checks every parameter range. A nil config is valid (it means
// no modeled branch predictor).
func (c *BranchConfig) Validate() error {
	if c == nil {
		return nil
	}
	fail := func(field string, value int, reason string) error {
		return &ConfigError{Config: c.Scheme, Field: field,
			Value: strconv.Itoa(value), Reason: reason}
	}
	if !knownBranchScheme(c.Scheme) {
		return &ConfigError{Config: c.Scheme, Field: "Scheme", Value: c.Scheme,
			Reason: "is not a stock branch scheme (" + strings.Join(stockBranchSchemes, ", ") + ")"}
	}
	if c.BimodalBits != 0 && (c.BimodalBits < 2 || c.BimodalBits > 16) {
		return fail("BimodalBits", c.BimodalBits, "must be between 2 and 16")
	}
	if c.TageHist != 0 && (c.TageHist < 2 || c.TageHist > 64) {
		return fail("TageHist", c.TageHist, "must be between 2 and 64")
	}
	if c.TageTables != 0 && (c.TageTables < 1 || c.TageTables > 8) {
		return fail("TageTables", c.TageTables, "must be between 1 and 8")
	}
	if c.TageBits != 0 && (c.TageBits < 2 || c.TageBits > 14) {
		return fail("TageBits", c.TageBits, "must be between 2 and 14")
	}
	if c.TageHist != 0 && c.TageHist < c.Tables() {
		return fail("TageHist", c.TageHist,
			fmt.Sprintf("must cover the %d tagged components (>= tables)", c.Tables()))
	}
	return nil
}

// Defaults for unset BranchConfig parameters.
const (
	DefaultBimodalBits   = 10
	DefaultBranchHist    = 16
	DefaultBranchTables  = 4
	DefaultBranchTagBits = 9
)

// BaseBits returns the effective bimodal table size exponent.
func (c *BranchConfig) BaseBits() int {
	if c == nil || c.BimodalBits == 0 {
		return DefaultBimodalBits
	}
	return c.BimodalBits
}

// Hist returns the effective longest global-history length.
func (c *BranchConfig) Hist() int {
	if c == nil || c.TageHist == 0 {
		return DefaultBranchHist
	}
	return c.TageHist
}

// Tables returns the effective tagged-component count.
func (c *BranchConfig) Tables() int {
	if c == nil || c.TageTables == 0 {
		return DefaultBranchTables
	}
	return c.TageTables
}

// TagBits returns the effective tagged-component table size exponent.
func (c *BranchConfig) TagBits() int {
	if c == nil || c.TageBits == 0 {
		return DefaultBranchTagBits
	}
	return c.TageBits
}

// SchemeName returns the effective scheme name; nil means "none".
func (c *BranchConfig) SchemeName() string {
	if c == nil {
		return "none"
	}
	return c.Scheme
}

// Key renders the canonical cache-key form: scheme name plus every
// non-default parameter in a fixed order. Two configs with equal keys
// behave identically; the nil config's key is "none". Pass fingerprints
// and compiled-plan caches embed this key, so its format is load-bearing.
func (c *BranchConfig) Key() string {
	if c == nil {
		return "none"
	}
	var parts []string
	add := func(k string, v int) {
		if v != 0 {
			parts = append(parts, k+"="+strconv.Itoa(v))
		}
	}
	switch c.Scheme {
	case "bimodal":
		add("bits", c.BimodalBits)
	case "tage":
		add("bits", c.TageBits)
		add("hist", c.TageHist)
		add("tables", c.TageTables)
	}
	if len(parts) == 0 {
		return c.Scheme
	}
	sort.Strings(parts)
	return c.Scheme + ":" + strings.Join(parts, ",")
}

// branchConfMax saturates table confidence at the LdPred gate's default
// counter ceiling would be overkill for 2-level direction tables; the
// classic 2-bit hysteresis is modeled with a 3-state ConfCounter cap.
const branchConfMax = 3

// bimodalEntry is one PC-indexed direction entry: the last-established
// direction plus a shared-mechanism confidence counter. A mispredict
// drains confidence (ConfCounter resets), and only a zero-confidence
// entry flips direction — the standard hysteresis.
type bimodalEntry struct {
	dir  bool
	conf ConfCounter
}

func (e *bimodalEntry) train(taken bool) {
	if taken == e.dir {
		e.conf.Train(true, branchConfMax)
		return
	}
	if e.conf == 0 {
		e.dir = taken
		e.conf = 1
		return
	}
	e.conf.Train(false, branchConfMax)
}

// btageEntry is one tagged-component entry; conf == 0 marks a free slot
// (an allocated entry always holds conf >= 1, mirroring vtageEntry.ctr).
type btageEntry struct {
	tag  uint16
	dir  bool
	conf ConfCounter
	u    uint8
}

const (
	btageTagMask = 0xfff // 12-bit tags
	btageUMax    = 3
)

// BranchPredictor is the pooled runtime direction predictor. One instance
// is shared by every branch of a simulation (the hardware structure being
// modeled); branches address it by a stable PC hash.
//
// Call contract: the in-order engines resolve every branch in the cycle
// it issues, so Predict(pc) and Update(pc, taken) are strictly paired —
// each Predict is followed by the matching Update before the next
// Predict. Update recomputes the provider rather than caching it (same
// rationale as VTAGESite.Update), so the pairing is a timing contract,
// not a correctness precondition; only the table keys, a pure function of
// (pc, global history), are memoized, so a paired Update rehashes nothing.
//
// Reset clears all table state and the global history in place; steady-
// state reuse allocates nothing.
type BranchPredictor struct {
	scheme string
	ghr    uint64

	base     []bimodalEntry
	baseMask uint64

	comps    [][]btageEntry
	compMask uint64
	histLens []int

	// keys memoizes componentKeys for (keyPC, keyGHR); one slot per
	// tagged component, sized at construction.
	keys   []tableKey
	keyPC  uint64
	keyGHR uint64
	keysOK bool
}

// NewBranchPredictor builds a cold predictor for a validated config.
// A nil config yields a nil predictor (no modeled control speculation).
func NewBranchPredictor(c *BranchConfig) *BranchPredictor {
	if c == nil {
		return nil
	}
	p := &BranchPredictor{scheme: c.Scheme}
	switch c.Scheme {
	case "bimodal", "tage":
		p.base = make([]bimodalEntry, 1<<c.BaseBits())
		p.baseMask = uint64(len(p.base) - 1)
	}
	if c.Scheme == "tage" {
		n := c.Tables()
		p.comps = make([][]btageEntry, n)
		p.histLens = make([]int, n)
		p.keys = make([]tableKey, n)
		p.compMask = (1 << c.TagBits()) - 1
		for i := range p.comps {
			p.comps[i] = make([]btageEntry, 1<<c.TagBits())
			// Geometric history lengths ending at Hist(): Hist, Hist/2, ...
			// reversed so histLens grows with the component index.
			l := c.Hist() >> (n - 1 - i)
			if l < 1 {
				l = 1
			}
			p.histLens[i] = l
		}
	}
	return p
}

// Reset clears every table and the global history in place.
func (p *BranchPredictor) Reset() {
	p.ghr = 0
	for i := range p.base {
		p.base[i] = bimodalEntry{}
	}
	for _, comp := range p.comps {
		for i := range comp {
			comp[i] = btageEntry{}
		}
	}
}

// componentKeys returns every tagged component's (index, tag) for the
// branch at pc under the current global history: an FNV-1a fold of the PC
// and the component's histLen bits of history. The keys are memoized per
// (pc, ghr) — they depend on nothing else — so the Update paired with a
// Predict reuses them, and an unpaired Update (a different pc or a moved
// history) recomputes them.
func (p *BranchPredictor) componentKeys(pc uint64) []tableKey {
	if p.keysOK && p.keyPC == pc && p.keyGHR == p.ghr {
		return p.keys
	}
	hpc := fnvMix(fnvOffset, pc)
	for ci, l := range p.histLens {
		h := fnvMix(hpc, p.ghr&(uint64(1)<<uint(l)-1))
		p.keys[ci] = tableKey{idx: h & p.compMask, tag: uint16(h>>32) & btageTagMask}
	}
	p.keyPC, p.keyGHR, p.keysOK = pc, p.ghr, true
	return p.keys
}

// provider returns the longest-history tagged component with a tag match,
// or -1 when the bimodal base provides.
func (p *BranchPredictor) provider(keys []tableKey) (comp int, idx uint64) {
	for ci := len(p.comps) - 1; ci >= 0; ci-- {
		k := keys[ci]
		e := &p.comps[ci][k.idx]
		if e.conf > 0 && e.tag == k.tag {
			return ci, k.idx
		}
	}
	return -1, 0
}

// Predict returns the predicted direction of the branch at pc.
func (p *BranchPredictor) Predict(pc uint64) bool {
	switch p.scheme {
	case "taken":
		return true
	case "nottaken":
		return false
	}
	if ci, idx := p.provider(p.componentKeys(pc)); ci >= 0 {
		return p.comps[ci][idx].dir
	}
	return p.base[pc&p.baseMask].dir
}

// Update trains the predictor with the branch's resolved direction and
// shifts it into the global history. See the type's call contract.
func (p *BranchPredictor) Update(pc uint64, taken bool) {
	switch p.scheme {
	case "taken", "nottaken":
		return
	case "bimodal":
		p.base[pc&p.baseMask].train(taken)
		return
	}
	keys := p.componentKeys(pc)
	ci, idx := p.provider(keys)
	predicted := p.base[pc&p.baseMask].dir
	if ci >= 0 {
		e := &p.comps[ci][idx]
		predicted = e.dir
		if e.dir == taken {
			e.conf.Train(true, branchConfMax)
			if e.u < btageUMax {
				e.u++
			}
		} else {
			if e.conf > 1 {
				e.conf--
			} else {
				e.dir = taken // replace a low-confidence entry in place
				e.conf = 1
			}
			if e.u > 0 {
				e.u--
			}
		}
	} else {
		p.base[pc&p.baseMask].train(taken)
	}
	if predicted != taken {
		// Allocate into a longer-history component; decayed-useful entries
		// are the victims, live ones age toward eviction.
		for ai := ci + 1; ai < len(p.comps); ai++ {
			k := keys[ai]
			e := &p.comps[ai][k.idx]
			if e.conf == 0 || e.u == 0 {
				*e = btageEntry{tag: k.tag, dir: taken, conf: 1}
				break
			}
			e.u--
		}
	}
	p.ghr = p.ghr<<1 | b2u(taken)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
