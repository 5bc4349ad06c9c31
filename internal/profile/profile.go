// Package profile implements the two profiling passes of the paper's §3:
//
//  1. Value profiling of loads: each static load's dynamic value stream is
//     scored online against a stride predictor and an FCM predictor; its
//     predictability is the higher of the two rates. Block execution
//     frequencies are collected in the same run.
//  2. Outcome profiling: after the speculation pass has selected loads, a
//     second run replays the program and records, for every dynamic block
//     instance, exactly which selected predictions hit — tallied as a
//     per-block histogram over outcome bitmasks. The experiment drivers
//     combine these histograms with the dual-engine timing model to
//     estimate execution cycles, best cases ("all predictions correct"),
//     and worst cases ("all incorrect").
package profile

import (
	"fmt"
	"sort"

	"vliwvp/internal/interp"
	"vliwvp/internal/ir"
	"vliwvp/internal/predict"
)

// LoadKey names a static load site.
type LoadKey struct {
	Func string
	OpID int
}

// BlockKey names a static basic block.
type BlockKey struct {
	Func  string
	Block int
}

// EdgeKey names a CFG edge within one function.
type EdgeKey struct {
	Func     string
	From, To int
}

// Scheme names the predictor family chosen for a site.
type Scheme uint8

const (
	// SchemeStride selects the two-delta stride predictor.
	SchemeStride Scheme = iota
	// SchemeFCM selects the order-2 FCM predictor.
	SchemeFCM
	// SchemeLast selects the plain last-value predictor.
	SchemeLast
	// SchemeLNV selects the last-n-value (modal ring) predictor.
	SchemeLNV
	// SchemeVTAGE selects the tagged geometric-history context predictor
	// (a shared table; sites address it through views).
	SchemeVTAGE
	// SchemeHybrid selects the stride/FCM tournament predictor.
	SchemeHybrid
)

func (s Scheme) String() string {
	switch s {
	case SchemeFCM:
		return "fcm"
	case SchemeLast:
		return "last"
	case SchemeLNV:
		return "lnv"
	case SchemeVTAGE:
		return "vtage"
	case SchemeHybrid:
		return "hybrid"
	default:
		return "stride"
	}
}

// SchemeByName inverts Scheme.String for the forceable scheme names.
func SchemeByName(name string) (Scheme, bool) {
	switch name {
	case "stride":
		return SchemeStride, true
	case "fcm":
		return SchemeFCM, true
	case "last":
		return SchemeLast, true
	case "lnv":
		return SchemeLNV, true
	case "vtage":
		return SchemeVTAGE, true
	case "hybrid":
		return SchemeHybrid, true
	}
	return SchemeStride, false
}

// zooOrder fixes the tie-break order for zoo-wide argmax selection: the
// paper's two families first (so "auto" degenerates to the legacy choice
// when the new schemes don't strictly win), then the PR-8 additions.
var zooOrder = [...]Scheme{SchemeStride, SchemeFCM, SchemeHybrid, SchemeLast, SchemeLNV, SchemeVTAGE}

// LoadProfile is the value profile of one static load site. Collect
// always meters every scheme of the zoo, so cached profiles are
// predictor-config-independent; Rate and Best deliberately keep the
// paper's stride/FCM semantics.
type LoadProfile struct {
	Key        LoadKey
	Count      int64
	StrideRate float64
	FCMRate    float64
	LastRate   float64
	LNVRate    float64
	VTAGERate  float64
	HybridRate float64
}

// Rate is the site's predictability: max(stride, FCM), per the paper.
func (lp *LoadProfile) Rate() float64 {
	if lp.FCMRate > lp.StrideRate {
		return lp.FCMRate
	}
	return lp.StrideRate
}

// Best is the predictor family achieving Rate.
func (lp *LoadProfile) Best() Scheme {
	if lp.FCMRate > lp.StrideRate {
		return SchemeFCM
	}
	return SchemeStride
}

// RateOf returns the profiled rate of one scheme.
func (lp *LoadProfile) RateOf(s Scheme) float64 {
	switch s {
	case SchemeFCM:
		return lp.FCMRate
	case SchemeLast:
		return lp.LastRate
	case SchemeLNV:
		return lp.LNVRate
	case SchemeVTAGE:
		return lp.VTAGERate
	case SchemeHybrid:
		return lp.HybridRate
	default:
		return lp.StrideRate
	}
}

// ZooBest is the zoo-wide argmax: the scheme with the highest profiled
// rate across all five families, ties broken toward the earlier scheme in
// the fixed zoo order (stride, fcm, last, lnv, vtage).
func (lp *LoadProfile) ZooBest() (Scheme, float64) {
	best, rate := zooOrder[0], lp.RateOf(zooOrder[0])
	for _, s := range zooOrder[1:] {
		if r := lp.RateOf(s); r > rate {
			best, rate = s, r
		}
	}
	return best, rate
}

// Profile holds the results of the value-profiling pass.
type Profile struct {
	Loads     map[LoadKey]*LoadProfile
	BlockFreq map[BlockKey]int64
	// EdgeFreq counts traversals of each CFG edge (used by region
	// formation to pick likely successors).
	EdgeFreq map[EdgeKey]int64
	// DynOps is the total dynamic operation count of the run.
	DynOps int64
}

// Load returns the profile of a site (nil if never executed).
func (p *Profile) Load(fn string, opID int) *LoadProfile {
	return p.Loads[LoadKey{Func: fn, OpID: opID}]
}

// Clone deep-copies the profile. Callers that rescore or mask predictor
// rates (the predictor-family ablation) clone first, so a profile shared
// through the experiment front-end cache is never mutated.
func (p *Profile) Clone() *Profile {
	c := &Profile{
		Loads:     make(map[LoadKey]*LoadProfile, len(p.Loads)),
		BlockFreq: make(map[BlockKey]int64, len(p.BlockFreq)),
		EdgeFreq:  make(map[EdgeKey]int64, len(p.EdgeFreq)),
		DynOps:    p.DynOps,
	}
	for k, lp := range p.Loads {
		dup := *lp
		c.Loads[k] = &dup
	}
	for k, v := range p.BlockFreq {
		c.BlockFreq[k] = v
	}
	for k, v := range p.EdgeFreq {
		c.EdgeFreq[k] = v
	}
	return c
}

// Freq returns the execution count of a block.
func (p *Profile) Freq(fn string, block int) int64 {
	return p.BlockFreq[BlockKey{Func: fn, Block: block}]
}

// Edge returns the traversal count of a CFG edge.
func (p *Profile) Edge(fn string, from, to int) int64 {
	return p.EdgeFreq[EdgeKey{Func: fn, From: from, To: to}]
}

// siteMeters scores every scheme of the zoo on one load site's value
// stream. Hybrid has no predictor of its own: a predict.Hybrid fed the
// same stream holds exactly this stride and FCM predictor and their hit
// counts, so its tournament choice is derived from them rather than run on
// a second Stride and a second FCM table.
type siteMeters struct {
	fn     *ir.Func // owning function, for the LoadKey built after the run
	stride predict.Stride
	fcm    *predict.FCM
	last   predict.LastValue
	lnv    *predict.LastN
	vtage  *predict.VTAGESite
	hits   [len(zooOrder)]int // indexed by Scheme
	total  int
}

func newSiteMeters(fn *ir.Func) *siteMeters {
	// Profiling meters every scheme of the zoo, whatever predictor the
	// simulation will run with: cached profiles must be
	// predictor-config-independent. The profiling VTAGE is a private
	// per-site table — the profile measures each site's intrinsic
	// predictability, not cross-site interference.
	return &siteMeters{
		fn:    fn,
		fcm:   predict.NewFCM(predict.DefaultFCMOrder, predict.DefaultFCMTableBits),
		lnv:   predict.NewLastN(predict.DefaultLNVDepth),
		vtage: predict.NewVTAGE(predict.DefaultVTAGEBits).Site(0),
	}
}

// score counts a hit for scheme s when its prediction (v, ok) was actual.
func (m *siteMeters) score(s Scheme, v uint64, ok bool, actual uint64) {
	if ok && v == actual {
		m.hits[s]++
	}
}

// observe scores every scheme's current prediction, then trains each
// predictor — predict.RateMeter.Observe for the whole zoo at once.
func (m *siteMeters) observe(actual uint64) {
	sv, sok := m.stride.Predict()
	fv, fok := m.fcm.Predict()
	hv, hok := predict.Tournament(sv, sok, fv, fok, m.hits[SchemeStride], m.hits[SchemeFCM])
	m.score(SchemeHybrid, hv, hok, actual)
	m.score(SchemeStride, sv, sok, actual)
	m.score(SchemeFCM, fv, fok, actual)
	v, ok := m.last.Predict()
	m.score(SchemeLast, v, ok, actual)
	v, ok = m.lnv.Predict()
	m.score(SchemeLNV, v, ok, actual)
	v, ok = m.vtage.Predict()
	m.score(SchemeVTAGE, v, ok, actual)
	m.total++
	m.stride.Update(actual)
	m.fcm.Update(actual)
	m.last.Update(actual)
	m.lnv.Update(actual)
	m.vtage.Update(actual)
}

// rate is scheme s's hit fraction, computed as predict.RateMeter.Rate.
func (m *siteMeters) rate(s Scheme) float64 {
	return float64(m.hits[s]) / float64(m.total)
}

// blockMeter counts one static block's executions and its outgoing CFG
// edge traversals (indexed like Block.Succs).
type blockMeter struct {
	fn    *ir.Func
	b     *ir.Block
	count int64
	succ  []int64
}

// Collect runs the program once and gathers value and frequency profiles.
// The hooks key their meters by op and block pointer, so no string is
// hashed per event; the string-keyed profile maps are built once, after
// the run.
func Collect(prog *ir.Program, entry string, args ...uint64) (*Profile, error) {
	m := interp.New(prog)
	sites := map[*ir.Op]*siteMeters{}
	blocks := map[*ir.Block]*blockMeter{}
	// prevBlock tracks the last block seen per call depth, to attribute
	// edges; a new block at depth d in the same function as the previous
	// block at depth d traversed the edge between them.
	var prevBlock []*blockMeter
	m.Hooks.OnBlock = func(f *ir.Func, b *ir.Block, depth int) {
		bm := blocks[b]
		if bm == nil {
			bm = &blockMeter{fn: f, b: b, succ: make([]int64, len(b.Succs))}
			blocks[b] = bm
		}
		bm.count++
		for len(prevBlock) <= depth {
			prevBlock = append(prevBlock, nil)
		}
		if prev := prevBlock[depth]; prev != nil && prev.fn == f {
			// Guard against false edges between consecutive invocations of
			// the same function at one depth: the edge must exist in the CFG.
			for i, s := range prev.b.Succs {
				if s == b.ID {
					prev.succ[i]++
					break
				}
			}
		}
		prevBlock[depth] = bm
	}
	m.Hooks.OnLoad = func(f *ir.Func, op *ir.Op, addr int, value uint64, depth int) {
		s := sites[op]
		if s == nil {
			s = newSiteMeters(f)
			sites[op] = s
		}
		s.observe(value)
	}
	if _, err := m.Run(entry, args...); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	prof := &Profile{
		Loads:     make(map[LoadKey]*LoadProfile, len(sites)),
		BlockFreq: make(map[BlockKey]int64, len(blocks)),
		EdgeFreq:  map[EdgeKey]int64{},
		DynOps:    m.Steps,
	}
	for op, s := range sites {
		k := LoadKey{Func: s.fn.Name, OpID: op.ID}
		prof.Loads[k] = &LoadProfile{
			Key:        k,
			Count:      int64(s.total),
			StrideRate: s.rate(SchemeStride),
			FCMRate:    s.rate(SchemeFCM),
			LastRate:   s.rate(SchemeLast),
			LNVRate:    s.rate(SchemeLNV),
			VTAGERate:  s.rate(SchemeVTAGE),
			HybridRate: s.rate(SchemeHybrid),
		}
	}
	for b, bm := range blocks {
		prof.BlockFreq[BlockKey{Func: bm.fn.Name, Block: b.ID}] = bm.count
		for i, n := range bm.succ {
			if n > 0 {
				prof.EdgeFreq[EdgeKey{Func: bm.fn.Name, From: b.ID, To: b.Succs[i]}] += n
			}
		}
	}
	return prof, nil
}

// Selection maps each block to the ordered list of load sites chosen for
// prediction in it, plus each site's predictor family. It is produced by
// the speculate pass and consumed by outcome profiling.
type Selection struct {
	// PerBlock lists selected load op IDs per block, in ascending op-ID
	// order; the position of a load in this list is its bit position in
	// outcome masks.
	PerBlock map[BlockKey][]int
	// Schemes gives the chosen predictor family per site.
	Schemes map[LoadKey]Scheme
}

// NewSelection returns an empty selection.
func NewSelection() *Selection {
	return &Selection{
		PerBlock: map[BlockKey][]int{},
		Schemes:  map[LoadKey]Scheme{},
	}
}

// Add registers a selected load site.
func (s *Selection) Add(fn string, block, opID int, scheme Scheme) {
	bk := BlockKey{Func: fn, Block: block}
	s.PerBlock[bk] = append(s.PerBlock[bk], opID)
	sort.Ints(s.PerBlock[bk])
	s.Schemes[LoadKey{Func: fn, OpID: opID}] = scheme
}

// Outcomes tallies, per block, how many dynamic instances saw each
// prediction-outcome mask (bit i set = i-th selected load predicted
// correctly in that instance).
type Outcomes struct {
	// MaskCounts[block][mask] = number of instances.
	MaskCounts map[BlockKey]map[uint32]int64
	// Executions[block] = total instances (sum over masks).
	Executions map[BlockKey]int64
}

// AllCorrectCount returns instances of the block where every prediction hit.
func (o *Outcomes) AllCorrectCount(bk BlockKey, numSel int) int64 {
	full := uint32(1)<<uint(numSel) - 1
	return o.MaskCounts[bk][full]
}

// AllWrongCount returns instances where every prediction missed.
func (o *Outcomes) AllWrongCount(bk BlockKey) int64 {
	return o.MaskCounts[bk][0]
}

// openInstance is a block instance whose selected loads are still resolving.
type openInstance struct {
	bk    BlockKey
	depth int
	sel   []int // selected op IDs, mask bit order
	mask  uint32
}

// OutcomeHooks receive streaming events from StreamOutcomes.
type OutcomeHooks struct {
	// OnInstance fires when a block instance with selected loads has
	// resolved (at the next block boundary): its outcome mask (bit i set =
	// i-th selected load predicted correctly) and selection size.
	OnInstance func(bk BlockKey, mask uint32, numSel int)
	// OnBlock fires on every dynamic block entry, selected or not.
	OnBlock func(bk BlockKey)
}

// StreamOutcomes replays the program with one live predictor per selected
// site (of the profiled-best family) and streams per-instance outcome
// events. CollectOutcomes is the tallying wrapper most callers want.
func StreamOutcomes(prog *ir.Program, sel *Selection, entry string, hooks OutcomeHooks, args ...uint64) error {
	m := interp.New(prog)
	preds := map[LoadKey]predict.Predictor{}
	// VTAGE sites share one table per replay run, like the hardware they
	// model; site IDs are assigned in first-execution order (deterministic
	// for a deterministic program).
	var vtage *predict.VTAGE
	var stack []*openInstance

	finalize := func(inst *openInstance) {
		if hooks.OnInstance != nil {
			hooks.OnInstance(inst.bk, inst.mask, len(inst.sel))
		}
	}
	closeDeeper := func(depth int) {
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			finalize(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		}
	}

	m.Hooks.OnBlock = func(f *ir.Func, b *ir.Block, depth int) {
		closeDeeper(depth)
		bk := BlockKey{Func: f.Name, Block: b.ID}
		if hooks.OnBlock != nil {
			hooks.OnBlock(bk)
		}
		selLoads := sel.PerBlock[bk]
		if len(selLoads) == 0 {
			return // nothing to track; instance boundaries don't matter
		}
		stack = append(stack, &openInstance{bk: bk, depth: depth, sel: selLoads})
	}
	m.Hooks.OnLoad = func(f *ir.Func, op *ir.Op, addr int, value uint64, depth int) {
		k := LoadKey{Func: f.Name, OpID: op.ID}
		scheme, selected := sel.Schemes[k]
		if !selected {
			return
		}
		p := preds[k]
		if p == nil {
			switch scheme {
			case SchemeFCM:
				p = predict.NewFCM(predict.DefaultFCMOrder, predict.DefaultFCMTableBits)
			case SchemeLast:
				p = predict.NewLastValue()
			case SchemeLNV:
				p = predict.NewLastN(predict.DefaultLNVDepth)
			case SchemeHybrid:
				p = predict.NewHybrid(predict.DefaultFCMOrder, predict.DefaultFCMTableBits)
			case SchemeVTAGE:
				if vtage == nil {
					vtage = predict.NewVTAGE(predict.DefaultVTAGEBits)
				}
				p = vtage.Site(len(preds))
			default:
				p = predict.NewStride()
			}
			preds[k] = p
		}
		hit := false
		if v, ok := p.Predict(); ok && v == value {
			hit = true
		}
		p.Update(value)

		// The owning instance is the deepest open instance at this call
		// depth (deeper callee instances may still sit above it until the
		// next block event closes them).
		for i := len(stack) - 1; i >= 0; i-- {
			inst := stack[i]
			if inst.depth > depth {
				continue
			}
			if inst.depth < depth || inst.bk.Func != f.Name {
				break
			}
			if hit {
				for j, id := range inst.sel {
					if id == op.ID {
						inst.mask |= 1 << uint(j)
						break
					}
				}
			}
			break
		}
	}
	if _, err := m.Run(entry, args...); err != nil {
		return fmt.Errorf("profile outcomes: %w", err)
	}
	closeDeeper(0)
	return nil
}

// CollectOutcomes tallies per-instance outcome masks per block.
func CollectOutcomes(prog *ir.Program, sel *Selection, entry string, args ...uint64) (*Outcomes, error) {
	out := &Outcomes{
		MaskCounts: map[BlockKey]map[uint32]int64{},
		Executions: map[BlockKey]int64{},
	}
	err := StreamOutcomes(prog, sel, entry, OutcomeHooks{
		OnInstance: func(bk BlockKey, mask uint32, numSel int) {
			out.Executions[bk]++
			mc := out.MaskCounts[bk]
			if mc == nil {
				mc = map[uint32]int64{}
				out.MaskCounts[bk] = mc
			}
			mc[mask]++
		},
	}, args...)
	if err != nil {
		return nil, err
	}
	return out, nil
}
