// Package conform is the metamorphic conformance harness over the
// dual-engine simulator: it feeds seed-generated programs (internal/progen)
// through the full pipeline — front end, optimizer, profiling, value
// speculation, VLIW scheduling, dynamic simulation — under a lattice of
// machine configurations, and asserts cross-configuration invariants no
// single golden run can check:
//
//  1. Architectural conformance: for every configuration, the simulated
//     return value, output, and final memory image match the sequential
//     interpreter.
//  2. Perfect prediction helps: replaying a site's recorded value stream
//     (a perfect predictor) never costs more cycles than the unspeculated
//     program, nor more than the same machine with trained predictors.
//  3. CCB monotonicity: at a fixed program and schedule, growing the
//     Compensation Code Buffer past the speculative window never costs a
//     cycle (above the window the buffer never limits issue, so cycles
//     are capacity-independent — the strong form of monotone
//     non-increasing), and capacities below the window may wedge or
//     shift timing but must stay architecturally exact.
//  4. Metrics self-consistency: the typed event stream, the simulator's
//     counters, and the published metrics snapshot all agree (every
//     buffered entry is eventually flushed or re-executed, every
//     prediction is checked and resolved, every stall event has its
//     counter), and every cycle is accounted for: Cycles equals Instrs
//     plus the sum of the stall counters.
//
// The same battery runs over named programs (CheckSource) and the stock
// kernels (CheckBenchmarks, over KernelLattice), so one harness is the
// simulator's only differential check against the interpreter.
//
// A violated invariant produces a Failure carrying the seed and a
// shrunken program (progen.Minimize re-runs the harness while deleting
// fragments), so every report is a one-command reproduction. An "arch"
// failure also carries its minimized machine configuration: the scheme-map
// entries and the smallest CCB capacity that still reproduce it.
package conform

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"vliwvp/internal/core"
	"vliwvp/internal/ddg"
	"vliwvp/internal/interp"
	"vliwvp/internal/ir"
	"vliwvp/internal/machine"
	"vliwvp/internal/obs"
	"vliwvp/internal/pipeline"
	"vliwvp/internal/pool"
	"vliwvp/internal/predict"
	"vliwvp/internal/profile"
	"vliwvp/internal/progen"
	"vliwvp/internal/speculate"
	"vliwvp/internal/workload"
)

// mgr executes every conformance pipeline run. Generated programs are
// unique per seed, so no cache or key is attached; under `go test` the
// manager validates the IR after every pass, in production (vpexp
// -conform) after the structural ones.
var mgr = pipeline.NewManager()

// Cell is one configuration of the conformance lattice.
type Cell struct {
	Name           string
	D              *machine.Desc
	CCBCapacity    int     // 0 = simulator default
	Threshold      float64 // 0 = speculation default
	SerialRecovery bool
	// Ctrl is the control-speculation model: the serial-recovery branch
	// penalty plus, when Ctrl.Branch is set, the modeled direction
	// predictor with its redirect/flush latencies. The zero value is the
	// pre-ControlConfig machine (free branches, no predictor).
	Ctrl machine.ControlConfig
	// Mem selects the memory-hierarchy model (nil = flat fixed-latency
	// loads). Sim-time-only: it never reaches the compile side, so cells
	// differing only in Mem share one CellPipeline.
	Mem *machine.MemConfig
	// Pred selects the predictor configuration (nil = profiled scheme
	// selection, default tables, no confidence gating). Unlike Mem it is
	// compile-side too: the speculate pass selects sites by the named
	// scheme's profiled rate, so cells differing in Pred compile their own
	// pipelines.
	Pred *predict.Config
}

// DefaultLattice spans machine widths, CCB pressure, recovery models, and
// speculation aggressiveness. Cells with a small CCB clamp the
// transform's Synchronization-bit window to the capacity so the
// speculative window always fits the buffer (the deadlock-freedom
// co-design constraint).
func DefaultLattice() []Cell {
	return []Cell{
		{Name: "w2-dual", D: machine.W2},
		{Name: "w4-dual", D: machine.W4},
		{Name: "w4-ccb4", D: machine.W4, CCBCapacity: 4},
		{Name: "w4-ccb1", D: machine.W4, CCBCapacity: 1},
		{Name: "w8-dual", D: machine.W8},
		{Name: "w4-thresh50", D: machine.W4, Threshold: 0.5},
		{Name: "w4-serial", D: machine.W4, SerialRecovery: true, Ctrl: machine.DefaultControl()},
		{Name: "w8-serial-bp0", D: machine.W8, SerialRecovery: true},
	}
}

// KernelLattice is the stock-kernel grid at one machine width: the
// dual-engine machine at the default and at a 4-entry CCB, and the
// serial-recovery machine with the default taken-branch penalty.
func KernelLattice(d *machine.Desc) []Cell {
	return []Cell{
		{Name: "dual/" + d.Name, D: d},
		{Name: "dual-ccb4/" + d.Name, D: d, CCBCapacity: 4},
		{Name: "serial/" + d.Name, D: d, SerialRecovery: true, Ctrl: machine.DefaultControl()},
	}
}

// MemLattice spans the memory-hierarchy axis at a fixed 4-wide dual-engine
// machine: every stock cache configuration (including the explicit flat
// one, whose cycles must be byte-identical to a nil Mem), plus a
// cache-under-CCB-pressure cell and a serial-recovery cell so dynamic load
// latencies meet every recovery path. Architectural results must be
// identical on every cell — only cycles may move.
func MemLattice() []Cell {
	cells := []Cell{{Name: "w4-mem-nil", D: machine.W4}}
	for _, m := range machine.StockMem() {
		cells = append(cells, Cell{Name: "w4-mem-" + m.Name, D: machine.W4, Mem: m})
	}
	cells = append(cells,
		Cell{Name: "w4-mem-l1pf-ccb4", D: machine.W4, CCBCapacity: 4, Mem: machine.MemL1PF},
		Cell{Name: "w4-mem-l2-serial", D: machine.W4, SerialRecovery: true, Ctrl: machine.DefaultControl(), Mem: machine.MemL2},
	)
	return cells
}

// PredLattice spans the predictor axis at a fixed 4-wide dual-engine
// machine: every stock scheme with gating off and on (a low threshold, so
// gated cells still predict — the suite's vacuity guards demand real
// predictions AND real suppressions), plus an alias-prone tiny VTAGE
// table and a serial-recovery gated cell so the reduced suppressed-site
// stall meets the recovery path. Architectural results must match the
// interpreter on every cell regardless of scheme or gating.
func PredLattice() []Cell {
	cells := []Cell{{Name: "w4-pred-nil", D: machine.W4}}
	for _, name := range predict.StockNames() {
		plain, err := predict.Parse(name)
		if err != nil {
			panic(err) // stock names always parse
		}
		gated, err := predict.Parse(name + ":conf=1,cbits=2")
		if err != nil {
			panic(err)
		}
		cells = append(cells,
			Cell{Name: "w4-pred-" + name, D: machine.W4, Pred: plain},
			Cell{Name: "w4-pred-" + name + "-gated", D: machine.W4, Pred: gated},
		)
	}
	tiny, err := predict.Parse("vtage:bits=2")
	if err != nil {
		panic(err)
	}
	serial, err := predict.Parse("profiled:conf=2")
	if err != nil {
		panic(err)
	}
	cells = append(cells,
		Cell{Name: "w4-pred-vtage-tiny", D: machine.W4, Pred: tiny},
		Cell{Name: "w4-pred-serial-gated", D: machine.W4, SerialRecovery: true, Ctrl: machine.DefaultControl(), Pred: serial},
	)
	return cells
}

// BranchLattice spans the control-speculation axis at a fixed 4-wide
// machine: every stock branch scheme (static and dynamic), a small
// alias-prone TAGE with non-default latencies, branch prediction under
// serial recovery, under value-confidence gating, and under CCB pressure,
// plus the predictor-less cell whose branch counters must stay zero. The
// mispredict flush is conservative by construction, so architectural
// results must match the interpreter on every cell — only cycles and
// accounting may move.
func BranchLattice() []Cell {
	mk := func(spec string) *predict.BranchConfig {
		c, err := predict.ParseBranch(spec)
		if err != nil {
			panic(err) // stock specs always parse
		}
		return c
	}
	gated, err := predict.Parse("profiled:conf=1,cbits=2")
	if err != nil {
		panic(err)
	}
	cells := []Cell{{Name: "w4-branch-nil", D: machine.W4}}
	for _, name := range predict.StockBranchNames() {
		cells = append(cells, Cell{Name: "w4-branch-" + name, D: machine.W4,
			Ctrl: machine.ControlConfig{Branch: mk(name)}})
	}
	cells = append(cells,
		Cell{Name: "w4-branch-tage-small", D: machine.W4,
			Ctrl: machine.ControlConfig{Branch: mk("tage:bits=4,hist=8,tables=2"), Flush: 6, Redirect: 2}},
		Cell{Name: "w4-branch-bimodal-serial", D: machine.W4, SerialRecovery: true,
			Ctrl: machine.ControlConfig{BranchPenalty: 1, Branch: mk("bimodal:bits=4")}},
		Cell{Name: "w4-branch-tage-gated", D: machine.W4, Pred: gated,
			Ctrl: machine.ControlConfig{Branch: mk("tage")}},
		Cell{Name: "w4-branch-taken-ccb2", D: machine.W4, CCBCapacity: 2,
			Ctrl: machine.ControlConfig{Branch: mk("taken")}},
		// Memory-hierarchy cells: with a flat fixed-latency memory every
		// check resolves within a couple of cycles of issue, so the
		// mispredict flush window is empty and flush semantics go
		// unexercised. Cache misses keep checks in flight across block
		// boundaries — these cells are what give the flush path teeth.
		Cell{Name: "w4-branch-tage-mem-l2", D: machine.W4, Mem: machine.MemL2,
			Ctrl: machine.ControlConfig{Branch: mk("tage")}},
		Cell{Name: "w4-branch-bimodal-mem-l1", D: machine.W4, Mem: machine.MemL1,
			Ctrl: machine.ControlConfig{Branch: mk("bimodal")}},
		Cell{Name: "w4-branch-nottaken-mem-l2pf", D: machine.W4, Mem: machine.MemL2PF,
			Ctrl: machine.ControlConfig{Branch: mk("nottaken"), Flush: 5}},
	)
	return cells
}

// Options configures a conformance run. The zero value means defaults.
type Options struct {
	// Lattice is the configuration set (default DefaultLattice).
	Lattice []Cell
	// Gen parameterizes the program generator.
	Gen progen.Options
	// Jobs bounds seed-level parallelism in Run.
	Jobs int
	// Tamper, when set, is applied to every dynamic simulator the harness
	// builds, immediately before running. It exists so tests can inject a
	// deliberate bug (e.g. core.Simulator.FaultCCEWritebackXor) and prove
	// the suite catches it with a minimized reproduction.
	Tamper func(*core.Simulator)
	// Origin names the test or command running the check. Failure
	// reports print it: outside DefaultLattice, rerunning it is the
	// reproduction.
	Origin string
}

func (o Options) withDefaults() Options {
	if o.Lattice == nil {
		o.Lattice = DefaultLattice()
	}
	if o.Jobs <= 0 {
		o.Jobs = 1
	}
	return o
}

// Failure reports one violated invariant, minimized.
type Failure struct {
	Program   string // "seed N" for generated programs, else the caller's name
	Seed      int64  // generator seed (0 for named programs)
	Invariant string // "arch", "perfect", "ccb-monotone", "metrics"
	Cell      string
	Detail    string
	Source    string // minimized VL program reproducing the violation
	// Schemes and CCB minimize an "arch" failure that a plain run of its
	// cell reproduces: the scheme-map entries it needs (unlisted sites use
	// the stride predictor) and the smallest CCB capacity that still
	// fails. Schemes is nil when there is no such repro.
	Schemes map[int]profile.Scheme
	CCB     int
	// Config is the failing cell's configuration (see Cell.key), and
	// Origin the test or command that found it (Options.Origin).
	Config string
	Origin string
}

// key renders the cell's whole configuration: machine, CCB capacity,
// threshold, recovery model, and the mem, pred, branch and control keys.
func (c Cell) key() string {
	return fmt.Sprintf("mach=%s ccb=%d thresh=%g serial=%t mem=%s pred=%s branch=%s control=%s",
		c.D.Name, c.CCBCapacity, c.Threshold, c.SerialRecovery,
		c.Mem.Key(), c.Pred.Key(), c.Ctrl.Branch.Key(), c.Ctrl.Key())
}

// sweepCell is the machine checkMonotone sweeps CCB capacities on; every
// check runs the sweep, whatever its lattice.
func sweepCell() Cell { return Cell{Name: "ccb-sweep", D: machine.W4} }

// at records where a failure was found: the failing cell and the run's
// origin.
func (f *Failure) at(cell Cell, opt Options) {
	f.Cell, f.Config, f.Origin = cell.Name, cell.key(), opt.Origin
}

// onDefaultLattice reports whether `vpexp -conform`, which checks
// DefaultLattice and the CCB sweep, runs the failing cell.
func (f *Failure) onDefaultLattice() bool {
	if f.Cell == sweepCell().Name && f.Config == sweepCell().key() {
		return true
	}
	for _, c := range DefaultLattice() {
		if f.Cell == c.Name && f.Config == c.key() {
			return true
		}
	}
	return false
}

// Report renders the failure with everything needed to reproduce it. The
// seed command is printed only for a failure on DefaultLattice, the one
// lattice `vpexp -conform` replays; any other failure names its cell's
// configuration and the test or command that found it.
func (f *Failure) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conformance: invariant %q violated (cell %s, program %s)\n", f.Invariant, f.Cell, f.Program)
	fmt.Fprintf(&b, "  %s\n", f.Detail)
	if f.Schemes != nil {
		fmt.Fprintf(&b, "  minimal repro: ccb=%d schemes=%v (unlisted sites use the stride predictor)\n", f.CCB, f.Schemes)
	}
	if f.Seed != 0 && f.onDefaultLattice() {
		fmt.Fprintf(&b, "  reproduce: vpexp -conform -progen-seed %d -progen-count 1\n", f.Seed)
	} else {
		fmt.Fprintf(&b, "  failing cell: %s\n", f.Config)
		if f.Origin != "" {
			fmt.Fprintf(&b, "  found by: %s\n", f.Origin)
		}
	}
	b.WriteString("  program:\n")
	for _, line := range strings.Split(strings.TrimRight(f.Source, "\n"), "\n") {
		fmt.Fprintf(&b, "\t%s\n", line)
	}
	return b.String()
}

// Stats aggregates coverage evidence across a run, so the suite can
// assert it is not passing vacuously (no predictions, no mispredictions,
// nothing ever buffered).
type Stats struct {
	Programs       int
	Cells          int
	Predictions    int64
	Mispredicts    int64
	CCEExecuted    int64
	CCEFlushed     int64
	CCBStallCells  int // runs that stalled on a full CCB at least once
	MonotoneSweeps int // programs that ran the CCB capacity sweep
	PressureRuns   int // completed sweep runs below the speculative window
	// Confidence-gating coverage (nonzero only under a predictor lattice).
	Suppressed      int64 // LdPred issues gated off by confidence counters
	SuppressedWrong int64 // suppressed issues whose prediction was wrong
	// Memory-hierarchy coverage (nonzero only under a mem lattice).
	MemMisses     int64 // demand misses across every cached cell
	MemIMisses    int64 // instruction-cache misses
	MemPrefetches int64 // prefetcher line fills issued
	// Control-speculation coverage (nonzero only under a branch lattice).
	BranchPredicts    int64 // conditional branches the direction predictor called
	BranchMispredicts int64 // of those, called wrong
	BranchFlushed     int64 // in-flight sites and buffered CCB entries flushed by branch mispredicts
}

func (s *Stats) add(o Stats) {
	s.Programs += o.Programs
	s.Cells += o.Cells
	s.Predictions += o.Predictions
	s.Mispredicts += o.Mispredicts
	s.CCEExecuted += o.CCEExecuted
	s.CCEFlushed += o.CCEFlushed
	s.CCBStallCells += o.CCBStallCells
	s.MonotoneSweeps += o.MonotoneSweeps
	s.PressureRuns += o.PressureRuns
	s.Suppressed += o.Suppressed
	s.SuppressedWrong += o.SuppressedWrong
	s.MemMisses += o.MemMisses
	s.MemIMisses += o.MemIMisses
	s.MemPrefetches += o.MemPrefetches
	s.BranchPredicts += o.BranchPredicts
	s.BranchMispredicts += o.BranchMispredicts
	s.BranchFlushed += o.BranchFlushed
}

// Run checks n consecutive seeds starting at startSeed, fanning across
// opt.Jobs workers. It returns every failure (one per failing seed,
// minimized) plus aggregate coverage stats; err reports harness breakage
// (a generated program that does not compile, or a simulator error on a
// well-formed run), which is always a bug.
func Run(startSeed int64, n int, opt Options) ([]*Failure, Stats, error) {
	opt = opt.withDefaults()
	fails := make([]*Failure, n)
	stats := make([]Stats, n)
	err := pool.ForEach(opt.Jobs, n, func(i int) error {
		f, st, err := CheckSeed(startSeed+int64(i), opt)
		fails[i], stats[i] = f, st
		return err
	})
	var out []*Failure
	var total Stats
	for i := range fails {
		if fails[i] != nil {
			out = append(out, fails[i])
		}
		total.add(stats[i])
	}
	return out, total, err
}

// CheckSeed generates one program and checks every invariant across the
// lattice. On a violation it shrinks the program while the same invariant
// keeps failing and returns the minimized Failure.
func CheckSeed(seed int64, opt Options) (*Failure, Stats, error) {
	opt = opt.withDefaults()
	spec := progen.Generate(seed, opt.Gen)
	name := fmt.Sprintf("seed %d", seed)
	fail, stats, err := check(name, progen.Render(spec), opt)
	if err != nil || fail == nil {
		return nil, stats, err
	}
	min := progen.Minimize(spec, func(s progen.Spec) bool {
		f, _, err := check(name, progen.Render(s), opt)
		return err == nil && f != nil && f.Invariant == fail.Invariant
	})
	// Re-derive the failure from the minimized spec so cell, detail and
	// repro describe the program actually reported.
	if f, _, err := CheckSource(name, progen.Render(min), opt); err == nil && f != nil {
		fail = f
	}
	fail.Seed = seed
	fail.Source = progen.Render(min)
	return fail, stats, nil
}

// CheckSource checks every invariant across the lattice for one named VL
// program and returns the first violation. An "arch" failure comes back
// with its machine configuration minimized (see shrinkArch).
func CheckSource(name, src string, opt Options) (*Failure, Stats, error) {
	opt = opt.withDefaults()
	s, err := load(name, src)
	if err != nil {
		return nil, Stats{}, err
	}
	fail, stats, err := s.check(opt)
	if err == nil && fail != nil && fail.Invariant == "arch" {
		err = s.shrinkArch(fail, opt)
	}
	if err != nil {
		return nil, stats, err
	}
	return fail, stats, nil
}

// CheckBenchmarks runs CheckSource over stock kernels, fanned across
// opt.Jobs workers. Failures come back in input order, nil where a kernel
// passed.
func CheckBenchmarks(benches []*workload.Benchmark, opt Options) ([]*Failure, Stats, error) {
	opt = opt.withDefaults()
	fails := make([]*Failure, len(benches))
	stats := make([]Stats, len(benches))
	err := pool.ForEach(opt.Jobs, len(benches), func(i int) error {
		var err error
		fails[i], stats[i], err = CheckSource(benches[i].Name, benches[i].Source, opt)
		return err
	})
	var total Stats
	for i := range stats {
		total.add(stats[i])
	}
	return fails, total, err
}

// Compile runs the conformance front end — lower, optimize, value
// profile — over VL source (typically progen output). Exported so the
// engine-diff suite compiles its corpus exactly the way the conformance
// harness does.
func Compile(src string) (*ir.Program, *profile.Profile, error) {
	fctx := &pipeline.Ctx{Source: src}
	frontPlan := pipeline.Plan{Name: "conform-front", Passes: []pipeline.Pass{
		pipeline.Lower{}, pipeline.Opt{}, pipeline.Profile{},
	}}
	if err := mgr.Run(frontPlan, fctx); err != nil {
		return nil, nil, err
	}
	return fctx.Prog, fctx.Prof, nil
}

// refResult is the sequential interpreter's architectural outcome.
type refResult struct {
	value  uint64
	output []string
	mem    []uint64
}

// subject is one program under test: its compiled front end and the
// interpreter's reference outcome.
type subject struct {
	name string
	src  string
	prog *ir.Program
	prof *profile.Profile
	ref  *refResult
}

// load compiles a program and runs the reference interpreter over it.
func load(name, src string) (*subject, error) {
	prog, prof, err := Compile(src)
	if err != nil {
		// A program that fails to compile, optimize to valid IR, or
		// profile is harness breakage, always a bug; the PassError names
		// the offending pass.
		return nil, fmt.Errorf("conform: %s front end: %w", name, err)
	}
	m := interp.New(prog)
	v, err := m.Run("main")
	if err != nil {
		return nil, fmt.Errorf("conform: %s interp: %w", name, err)
	}
	ref := &refResult{value: v, output: m.Output, mem: append([]uint64(nil), m.Mem...)}
	return &subject{name: name, src: src, prog: prog, prof: prof, ref: ref}, nil
}

// check loads a program and runs the invariant battery, without shrinking.
func check(name, src string, opt Options) (*Failure, Stats, error) {
	s, err := load(name, src)
	if err != nil {
		return nil, Stats{}, err
	}
	return s.check(opt)
}

// check runs the full invariant battery and returns the first violation
// (cells in lattice order, arch before metrics before perfect within a
// cell, then the CCB monotonicity sweep).
func (s *subject) check(opt Options) (*Failure, Stats, error) {
	stats := Stats{Programs: 1}
	found := func(f *Failure, cell Cell) (*Failure, Stats, error) {
		if f != nil {
			f.Program, f.Source = s.name, s.src
			f.at(cell, opt)
		}
		return f, stats, nil
	}
	baseCycles := map[*machine.Desc]int64{}
	for _, cell := range opt.Lattice {
		fail, err := checkCell(s.prog, s.prof, s.ref, cell, opt, baseCycles, &stats)
		if err != nil {
			return nil, stats, fmt.Errorf("conform: %s cell %s: %w", s.name, cell.Name, err)
		}
		if fail != nil {
			return found(fail, cell)
		}
	}
	fail, err := checkMonotone(s.prog, s.prof, s.ref, opt, &stats)
	if err != nil {
		return nil, stats, fmt.Errorf("conform: %s: %w", s.name, err)
	}
	return found(fail, sweepCell())
}

// shrinkArch minimizes an "arch" failure's machine configuration:
// greedily drop scheme-map entries, then find the smallest CCB capacity
// in 1, 2, 4, ... below the cell's that still fails. A trial counts only
// if it fails the way a plain run of the cell does — a mismatch for a mismatch,
// a simulator error for a simulator error — so a small CCB that merely
// wedges the machine is not a smaller repro of a wrong value. Trials stop
// at 2^24 cycles. A failure no plain run reproduces (the CCB sweep,
// perfect replay, an invalid transform) is left without a repro.
func (s *subject) shrinkArch(f *Failure, opt Options) error {
	var cell *Cell
	for i := range opt.Lattice {
		if opt.Lattice[i].Name == f.Cell {
			cell = &opt.Lattice[i]
		}
	}
	if cell == nil {
		return nil
	}
	res, schemes, err := transform(s.prog, s.prof, *cell)
	if err != nil {
		return nil
	}
	img, err := scheduleDecode(res.Prog, cell.D)
	if err != nil {
		return err
	}
	capacity := cell.CCBCapacity
	if capacity <= 0 {
		capacity = core.DefaultCCBCapacity
	}
	// trial classifies one run: "" (agrees), "error" or "mismatch".
	trial := func(schemes map[int]profile.Scheme, ccb int) string {
		sim := core.NewSimulatorFromImage(img, schemes)
		applyCell(sim, *cell)
		sim.CCBCapacity = ccb
		sim.MaxCycles = 1 << 24
		if opt.Tamper != nil {
			opt.Tamper(sim)
		}
		v, err := sim.Run("main")
		if err != nil {
			return "error"
		}
		if archDiff(s.ref, v, sim) != "" {
			return "mismatch"
		}
		return ""
	}
	kind := trial(schemes, capacity)
	if kind == "" {
		return nil
	}
	ids := make([]int, 0, len(schemes))
	for id := range schemes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	min := schemes
	for _, id := range ids {
		pruned := make(map[int]profile.Scheme, len(min))
		for k, v := range min {
			if k != id {
				pruned[k] = v
			}
		}
		if trial(pruned, capacity) == kind {
			min = pruned
		}
	}
	f.Schemes, f.CCB = min, capacity
	for c := 1; c < capacity; c *= 2 {
		if trial(min, c) == kind {
			f.CCB = c
			break
		}
	}
	return nil
}

// transform applies the speculation pass for a cell, clamping the
// Synchronization-bit window to the CCB capacity (the deadlock-freedom
// co-design rule). The pass manager validates the transformed program;
// callers map a validation error (pipeline.IsValidation) to an
// "arch" invariant failure rather than harness breakage.
func transform(prog *ir.Program, prof *profile.Profile, cell Cell) (*speculate.Result, map[int]profile.Scheme, error) {
	cfg := speculate.DefaultConfig(cell.D)
	cfg.Predictor = cell.Pred
	cfg.Control = cell.Ctrl
	if cell.Threshold > 0 {
		cfg.Threshold = cell.Threshold
	}
	if cell.CCBCapacity > 0 && cfg.MaxSyncBits > cell.CCBCapacity {
		cfg.MaxSyncBits = cell.CCBCapacity
	}
	plan := pipeline.Plan{Name: "conform-speculate", Passes: []pipeline.Pass{
		pipeline.Speculate{Cfg: cfg},
	}}
	ctx := &pipeline.Ctx{Prog: prog, Prof: prof, Machine: cell.D, Shared: true}
	if err := mgr.Run(plan, ctx); err != nil {
		return nil, nil, err
	}
	return ctx.Spec, ctx.Schemes, nil
}

// specFailure maps a speculation-pipeline validation error to the "arch"
// invariant failure it is (the transform produced invalid IR); any other
// error is harness breakage, returned as-is.
func specFailure(err error, cell Cell) (*Failure, error) {
	if pipeline.IsValidation(err) {
		return &Failure{Invariant: "arch", Cell: cell.Name,
			Detail: fmt.Sprintf("transformed program invalid: %v", err)}, nil
	}
	return nil, err
}

// scheduleDecode builds the per-block VLIW schedules for a (possibly
// transformed) program and lowers the result into the simulator's dense
// image through the pipeline decode pass.
func scheduleDecode(prog *ir.Program, d *machine.Desc) (*core.Image, error) {
	plan := pipeline.Plan{Name: "conform-schedule", Passes: []pipeline.Pass{
		pipeline.Schedule{DDG: ddg.Options{}}, pipeline.Decode{},
	}}
	ctx := &pipeline.Ctx{Prog: prog, Machine: d, Shared: true}
	if err := mgr.Run(plan, ctx); err != nil {
		return nil, err
	}
	return ctx.Image, nil
}

// CellPipeline is one cell's compiled speculative pipeline: the transform
// result, the decoded execution image, and the per-site predictor schemes.
// The image is immutable — any number of simulators (one per engine, one
// per goroutine) may bind to it. The engine-diff suite uses this to run
// the decoded and legacy engines over identical compiles.
type CellPipeline struct {
	Spec    *speculate.Result
	Img     *core.Image
	Schemes map[int]profile.Scheme
}

// PrepareCell runs a cell's speculative pipeline — transform (with the
// cell's CCB-clamped Synchronization-bit budget), schedule, decode — over
// a compiled front end. A pipeline validation error means the transform
// produced invalid IR (map it with pipeline.IsValidation); any other error
// is harness breakage.
func PrepareCell(prog *ir.Program, prof *profile.Profile, cell Cell) (*CellPipeline, error) {
	res, schemes, err := transform(prog, prof, cell)
	if err != nil {
		return nil, err
	}
	img, err := scheduleDecode(res.Prog, cell.D)
	if err != nil {
		return nil, err
	}
	return &CellPipeline{Spec: res, Img: img, Schemes: schemes}, nil
}

// applyCell copies a cell's runtime knobs onto a freshly built simulator —
// the single place the Cell→Simulator wiring lives (NewSim and buildSim
// both route through it, so a new knob cannot be wired into one and
// forgotten in the other).
func applyCell(sim *core.Simulator, cell Cell) {
	if cell.CCBCapacity > 0 {
		sim.CCBCapacity = cell.CCBCapacity
	}
	sim.SerialRecovery = cell.SerialRecovery
	sim.Control = cell.Ctrl
	sim.MemCfg = cell.Mem
	sim.PredCfg = cell.Pred
}

// NewSim binds a fresh decoded-engine simulator to the compiled cell.
func (cp *CellPipeline) NewSim(cell Cell) *core.Simulator {
	sim := core.NewSimulatorFromImage(cp.Img, cp.Schemes)
	applyCell(sim, cell)
	return sim
}

// buildSim wires a dynamic simulator for one cell over an already
// transformed program.
func buildSim(res *speculate.Result, schemes map[int]profile.Scheme, cell Cell, opt Options) (*core.Simulator, error) {
	img, err := scheduleDecode(res.Prog, cell.D)
	if err != nil {
		return nil, err
	}
	sim := core.NewSimulatorFromImage(img, schemes)
	applyCell(sim, cell)
	if opt.Tamper != nil {
		opt.Tamper(sim)
	}
	return sim, nil
}

// archDiff compares a simulator run against the interpreter reference and
// returns a human-readable mismatch, or "".
func archDiff(ref *refResult, v uint64, sim *core.Simulator) string {
	if v != ref.value {
		return fmt.Sprintf("return value %d, interpreter got %d", v, ref.value)
	}
	if len(sim.Output) != len(ref.output) {
		return fmt.Sprintf("emitted %d output lines, interpreter %d", len(sim.Output), len(ref.output))
	}
	for i := range ref.output {
		if sim.Output[i] != ref.output[i] {
			return fmt.Sprintf("output[%d] = %q, interpreter %q", i, sim.Output[i], ref.output[i])
		}
	}
	mem := sim.Memory()
	if len(mem) != len(ref.mem) {
		return fmt.Sprintf("memory image %d words, interpreter %d", len(mem), len(ref.mem))
	}
	for i := range ref.mem {
		if mem[i] != ref.mem[i] {
			return fmt.Sprintf("mem[%d] = %d, interpreter %d", i, mem[i], ref.mem[i])
		}
	}
	return ""
}

// checkCell validates invariants 1, 4, and 2 for one lattice cell.
func checkCell(prog *ir.Program, prof *profile.Profile, ref *refResult, cell Cell,
	opt Options, baseCycles map[*machine.Desc]int64, stats *Stats) (*Failure, error) {

	res, schemes, err := transform(prog, prof, cell)
	if err != nil {
		// Invariant 0: the transformed program still satisfies the IR
		// validator (including the speculation-form checks). The pass
		// manager runs it between passes and names the offender.
		return specFailure(err, cell)
	}
	sim, err := buildSim(res, schemes, cell, opt)
	if err != nil {
		return nil, err
	}
	sink := &countSink{}
	sim.Sink = sink

	// The trained-predictor run doubles as the recording run for the
	// perfect-replay comparison. Predictor-axis cells (Pred set) skip the
	// replay entirely and must NOT install the recorder: the recorder's
	// inner predictor would bypass the forced scheme, and the axis exists
	// to run the real zoo predictors end to end.
	replayable := cell.Pred == nil && !cell.Ctrl.Dynamic()
	logs := map[int][]uint64{}
	recIDs := map[*predict.Recorder]int{}
	if replayable {
		sim.NewPredictor = func(id int) predict.Predictor {
			var inner predict.Predictor
			if schemes[id] == profile.SchemeFCM {
				inner = predict.NewFCM(predict.DefaultFCMOrder, predict.DefaultFCMTableBits)
			} else {
				inner = predict.NewStride()
			}
			r := &predict.Recorder{P: inner}
			recIDs[r] = id
			return r
		}
	}

	v, err := sim.Run("main")
	if err != nil {
		// A simulator error on a program the interpreter accepts is an
		// architectural divergence (e.g. a wild speculative address that
		// escaped recovery), not harness breakage.
		return &Failure{Invariant: "arch", Cell: cell.Name,
			Detail: fmt.Sprintf("simulator error: %v", err)}, nil
	}
	trainedCycles := sim.Cycles

	stats.Cells++
	stats.Predictions += sim.Predictions
	stats.Mispredicts += sim.Mispredicts
	stats.CCEExecuted += sim.CCEExecuted
	stats.CCEFlushed += sim.CCEFlushed
	if sim.StallCCB > 0 {
		stats.CCBStallCells++
	}
	stats.Suppressed += sim.Suppressed
	stats.SuppressedWrong += sim.SuppressedWrong
	stats.MemMisses += sim.DMisses
	stats.MemIMisses += sim.IMisses
	stats.MemPrefetches += sim.PrefIssued
	stats.BranchPredicts += sim.BranchPredicts
	stats.BranchMispredicts += sim.BranchMispredicts
	stats.BranchFlushed += sim.BranchFlushed

	// Invariant 1: architectural conformance.
	if d := archDiff(ref, v, sim); d != "" {
		return &Failure{Invariant: "arch", Cell: cell.Name, Detail: d}, nil
	}
	// Invariant 4: event stream vs counters vs snapshot.
	if d := sink.diff(sim, cell); d != "" {
		return &Failure{Invariant: "metrics", Cell: cell.Name, Detail: d}, nil
	}

	// Invariant 2: perfect prediction never loses. Dual-engine cells with
	// an unconstrained CCB and flat load latency only: a deliberately
	// starved buffer, the serial-recovery machine, or a cache model (whose
	// check loads can miss where the training run hit) are allowed to lose
	// to the unspeculated baseline. Predictor-axis cells skip too — no
	// recorder ran (see above), and a gated machine deliberately forgoes
	// prediction wins at unconfident sites.
	if !replayable || cell.SerialRecovery || cell.CCBCapacity > 0 || !cell.Mem.Flat() || sim.Predictions == 0 {
		return nil, nil
	}
	for r, id := range recIDs {
		logs[id] = r.Log
	}
	sim.Sink = nil // invariant 4 was checked above; the replay run needs no events
	sim.NewPredictor = func(id int) predict.Predictor {
		return &predict.Replay{Seq: logs[id]}
	}
	pv, err := sim.Run("main")
	if err != nil {
		return nil, fmt.Errorf("perfect-replay run: %w", err)
	}
	if d := archDiff(ref, pv, sim); d != "" {
		return &Failure{Invariant: "arch", Cell: cell.Name,
			Detail: "under perfect replay: " + d}, nil
	}
	if sim.Mispredicts != 0 {
		return &Failure{Invariant: "perfect", Cell: cell.Name,
			Detail: fmt.Sprintf("replayed predictor still mispredicted %d of %d", sim.Mispredicts, sim.Predictions)}, nil
	}
	if sim.Cycles > trainedCycles {
		return &Failure{Invariant: "perfect", Cell: cell.Name,
			Detail: fmt.Sprintf("perfect replay took %d cycles, trained predictors %d", sim.Cycles, trainedCycles)}, nil
	}
	// Against the unspeculated baseline, perfect prediction is not free:
	// every site adds exactly two operations (LdPred + CheckLd, the
	// check a real load competing for memory ports) and call barriers
	// drain the CCB. Each of those costs at most a bounded number of
	// cycles — an issue slot each, a memory-port conflict for the check,
	// a bounded share of a barrier drain — so the implementable form of
	// the paper's "prediction never loses" claim is a per-prediction
	// overhead allowance (4 cycles/site is a conservative ceiling); a
	// violation means speculation cost something that does NOT scale
	// with the speculation the program performed — a stall pathology or
	// a wedge, exactly what this invariant exists to catch. On a 2-wide
	// machine even that bound does not hold (the machine has no spare
	// slots at all), so the baseline comparison covers the >=4-wide
	// configurations the paper evaluates.
	if cell.D.Width < 4 {
		return nil, nil
	}
	base, ok := baseCycles[cell.D]
	if !ok {
		base, err = baselineCycles(prog, cell, opt)
		if err != nil {
			return nil, err
		}
		baseCycles[cell.D] = base
	}
	if allowed := base + 4*sim.Predictions + 64; sim.Cycles > allowed {
		return &Failure{Invariant: "perfect", Cell: cell.Name,
			Detail: fmt.Sprintf("perfect replay took %d cycles; unspeculated baseline %d + overhead allowance for %d predictions gives only %d",
				sim.Cycles, base, sim.Predictions, allowed)}, nil
	}
	return nil, nil
}

// baselineCycles runs the untransformed program on the same machine:
// scheduled, scoreboarded, but with no speculation anywhere.
func baselineCycles(prog *ir.Program, cell Cell, opt Options) (int64, error) {
	base := prog.Clone()
	img, err := scheduleDecode(base, cell.D)
	if err != nil {
		return 0, err
	}
	sim := core.NewSimulatorFromImage(img, nil)
	if opt.Tamper != nil {
		opt.Tamper(sim)
	}
	if _, err := sim.Run("main"); err != nil {
		return 0, fmt.Errorf("baseline run: %w", err)
	}
	return sim.Cycles, nil
}

// checkMonotone sweeps CCB capacity at a fixed program and schedule
// (4-wide, dual-engine). At or above the widest per-block
// Synchronization-bit window the machine is deadlock free by co-design
// and the buffer never limits issue, so cycles must not depend on the
// capacity at all — equality, the strong form of "monotone non-increasing
// in capacity". Below the window the sweep creates real buffer pressure;
// there the machine may wedge (skipped) and cycles may move in either
// direction — a CCB stall delays a LdPred past earlier check resolutions,
// which retrains the predictors and changes the misprediction pattern
// itself — but completed runs must still be architecturally exact.
func checkMonotone(prog *ir.Program, prof *profile.Profile, ref *refResult, opt Options, stats *Stats) (*Failure, error) {
	cell := sweepCell()
	res, schemes, err := transform(prog, prof, cell)
	if err != nil {
		return specFailure(err, cell)
	}
	maxBits := 0
	for _, bi := range res.Blocks {
		if n := bits.OnesCount64(bi.BitsUsed); n > maxBits {
			maxBits = n
		}
	}
	if maxBits == 0 {
		return nil, nil // nothing speculated: nothing to sweep
	}
	sim, err := buildSim(res, schemes, cell, opt)
	if err != nil {
		return nil, err
	}
	// Reference run exactly at the floor: every capacity at or above the
	// window must reproduce its cycle count.
	sim.CCBCapacity = maxBits
	fv, err := sim.Run("main")
	if err != nil {
		return &Failure{Invariant: "ccb-monotone", Cell: cell.Name,
			Detail: fmt.Sprintf("wedged at CCB capacity %d >= speculative window %d: %v",
				maxBits, maxBits, err)}, nil
	}
	if d := archDiff(ref, fv, sim); d != "" {
		return &Failure{Invariant: "arch", Cell: cell.Name,
			Detail: fmt.Sprintf("at CCB capacity %d: %s", maxBits, d)}, nil
	}
	refCycles := sim.Cycles
	sim.MaxCycles = 16*refCycles + 50000

	caps := []int{1, maxBits / 2, maxBits - 1, maxBits + 1, 2 * maxBits, core.DefaultCCBCapacity}
	sort.Ints(caps)
	stats.MonotoneSweeps++
	for i, c := range caps {
		if c < 1 || c == maxBits || (i > 0 && c == caps[i-1]) {
			continue
		}
		sim.CCBCapacity = c
		v, err := sim.Run("main")
		if err != nil {
			if c > maxBits {
				// At or above the window the machine must not wedge.
				return &Failure{Invariant: "ccb-monotone", Cell: cell.Name,
					Detail: fmt.Sprintf("wedged at CCB capacity %d > speculative window %d: %v",
						c, maxBits, err)}, nil
			}
			continue // sub-floor wedge: a legal refusal, treated as +inf
		}
		if d := archDiff(ref, v, sim); d != "" {
			return &Failure{Invariant: "arch", Cell: cell.Name,
				Detail: fmt.Sprintf("at CCB capacity %d: %s", c, d)}, nil
		}
		if c > maxBits {
			if sim.Cycles != refCycles {
				return &Failure{Invariant: "ccb-monotone", Cell: cell.Name,
					Detail: fmt.Sprintf("CCB %d took %d cycles, CCB %d (the %d-bit speculative window, above which the buffer never limits issue) took %d",
						c, sim.Cycles, maxBits, maxBits, refCycles)}, nil
			}
			continue
		}
		stats.PressureRuns++
		if sim.StallCCB > 0 {
			stats.CCBStallCells++
		}
	}
	return nil, nil
}

// countSink tallies the typed event stream for the self-consistency
// invariant.
type countSink struct {
	kinds      [256]int64 // indexed by obs.Kind
	resolveBad int64      // trusted (non-gated) resolves with a wrong prediction
	gatedBad   int64      // gated resolves whose prediction was wrong
}

func (c *countSink) Event(e *obs.Event) {
	c.kinds[e.Kind]++
	if e.Kind == obs.KindCheckResolve && !e.Correct {
		if e.Gated {
			c.gatedBad++
		} else {
			c.resolveBad++
		}
	}
}

// diff cross-checks the event stream against the simulator's counters and
// its published metrics snapshot. It must be called after a successful
// Run with the sink attached for the whole run.
func (c *countSink) diff(sim *core.Simulator, cell Cell) string {
	k := func(kind obs.Kind) int64 { return c.kinds[kind] }
	type eq struct {
		name string
		a, b int64
	}
	checks := []eq{
		{"Cycles vs Instrs+StallSync+StallScore+StallCCB+StallBar+StallRecovery+StallRedirect+StallIFetch", sim.Cycles,
			sim.Instrs + sim.StallSync + sim.StallScore + sim.StallCCB + sim.StallBar + sim.StallRecovery + sim.StallRedirect + sim.StallIFetch},
		{"ldpred-issue events vs Predictions", k(obs.KindLdPredIssue), sim.Predictions},
		{"pred-suppress events vs Suppressed", k(obs.KindPredSuppress), sim.Suppressed},
		{"check-issue events vs Predictions+Suppressed", k(obs.KindCheckIssue), sim.Predictions + sim.Suppressed},
		{"check-resolve events vs Predictions+Suppressed", k(obs.KindCheckResolve), sim.Predictions + sim.Suppressed},
		{"incorrect trusted resolves vs Mispredicts", c.resolveBad, sim.Mispredicts},
		{"incorrect gated resolves vs SuppressedWrong", c.gatedBad, sim.SuppressedWrong},
		{"cce-flush events vs CCEFlushed", k(obs.KindCCEFlush), sim.CCEFlushed},
		{"cce-execute events vs CCEExecuted", k(obs.KindCCEExecute), sim.CCEExecuted},
		{"ccb captures vs flushed+executed+squashed", k(obs.KindBufferCCB),
			sim.CCEFlushed + sim.CCEExecuted + sim.BranchSquashed},
		{"stall.sync events vs StallSync", k(obs.KindStallSync), sim.StallSync},
		{"stall.scoreboard events vs StallScore", k(obs.KindStallScore), sim.StallScore},
		{"stall.ccb events vs StallCCB", k(obs.KindStallCCB), sim.StallCCB},
		{"stall.barrier events vs StallBar", k(obs.KindStallBarrier), sim.StallBar},
		{"instr-issue events vs Instrs", k(obs.KindInstrIssue), sim.Instrs},
		{"branch-mispredict events vs BranchMispredicts", k(obs.KindBranchMispredict), sim.BranchMispredicts},
		{"branch-flush events vs BranchFlushed", k(obs.KindBranchFlush), sim.BranchFlushed},
		{"stall.ifetch events vs StallIFetch", k(obs.KindStallIFetch), sim.StallIFetch},
		{"mem-hit events vs DHits", k(obs.KindMemHit), sim.DHits},
		{"mem-miss events vs DMisses", k(obs.KindMemMiss), sim.DMisses},
		{"mem-prefetch events vs PrefIssued", k(obs.KindMemPrefetch), sim.PrefIssued},
	}
	for _, ch := range checks {
		if ch.a != ch.b {
			return fmt.Sprintf("%s: %d != %d", ch.name, ch.a, ch.b)
		}
	}

	snap := sim.Metrics()
	scalar := []eq{
		{"snapshot sim.cycles", snap.Counters["sim.cycles"], sim.Cycles},
		{"snapshot pred.predictions", snap.Counters["pred.predictions"], sim.Predictions},
		{"snapshot pred.verified", snap.Counters["pred.verified"], sim.Predictions - sim.Mispredicts},
		{"snapshot pred.suppressed", snap.Counters["pred.suppressed"], sim.Suppressed},
		{"snapshot pred.suppressed_wrong", snap.Counters["pred.suppressed_wrong"], sim.SuppressedWrong},
		{"snapshot stall.recovery", snap.Counters["stall.recovery"], sim.StallRecovery},
		{"snapshot stall.redirect", snap.Counters["stall.redirect"], sim.StallRedirect},
		{"snapshot branch.predicts", snap.Counters["branch.predicts"], sim.BranchPredicts},
		{"snapshot branch.mispredicted", snap.Counters["branch.mispredicted"], sim.BranchMispredicts},
		{"snapshot branch.flushed", snap.Counters["branch.flushed"], sim.BranchFlushed},
		{"snapshot branch.squashed", snap.Counters["branch.squashed"], sim.BranchSquashed},
		{"snapshot ccb.max_occupancy", snap.Counters["ccb.max_occupancy"], int64(sim.MaxCCBOccupancy)},
		{"snapshot mem.dhits", snap.Counters["mem.dhits"], sim.DHits},
		{"snapshot mem.dmisses", snap.Counters["mem.dmisses"], sim.DMisses},
		{"snapshot mem.imisses", snap.Counters["mem.imisses"], sim.IMisses},
		{"snapshot mem.prefetch.issued", snap.Counters["mem.prefetch.issued"], sim.PrefIssued},
		{"snapshot mem.prefetch.useful", snap.Counters["mem.prefetch.useful"], sim.PrefUseful},
	}
	for _, ch := range scalar {
		if ch.a != ch.b {
			return fmt.Sprintf("%s: %d != %d", ch.name, ch.a, ch.b)
		}
	}
	if !cell.SerialRecovery && sim.StallRecovery != 0 {
		return fmt.Sprintf("dual-engine run charged %d recovery stalls", sim.StallRecovery)
	}
	if !cell.Pred.Gating() && sim.Suppressed+sim.SuppressedWrong != 0 {
		return fmt.Sprintf("ungated run suppressed %d issues (%d wrong)", sim.Suppressed, sim.SuppressedWrong)
	}
	if !cell.Ctrl.Dynamic() && sim.BranchPredicts+sim.BranchMispredicts+sim.BranchFlushed+sim.StallRedirect != 0 {
		return fmt.Sprintf("predictor-less run recorded branch activity (%d predicts, %d mispredicts, %d flushed, %d redirect stalls)",
			sim.BranchPredicts, sim.BranchMispredicts, sim.BranchFlushed, sim.StallRedirect)
	}
	if sim.BranchMispredicts > sim.BranchPredicts {
		return fmt.Sprintf("%d branch mispredicts exceed %d predicts", sim.BranchMispredicts, sim.BranchPredicts)
	}
	if sim.BranchSquashed > sim.BranchFlushed {
		return fmt.Sprintf("%d squashed CCB entries exceed %d total branch flushes", sim.BranchSquashed, sim.BranchFlushed)
	}
	hist, ok := snap.Histograms["ccb.occupancy"]
	if !ok {
		return "snapshot missing ccb.occupancy histogram"
	}
	var histTotal int64
	for _, n := range hist.Counts {
		histTotal += n
	}
	if histTotal != c.kinds[obs.KindBufferCCB] {
		return fmt.Sprintf("ccb.occupancy histogram totals %d samples, %d entries were buffered",
			histTotal, c.kinds[obs.KindBufferCCB])
	}
	capacity := sim.CCBCapacity
	if capacity <= 0 {
		capacity = core.DefaultCCBCapacity
	}
	if sim.MaxCCBOccupancy > capacity {
		return fmt.Sprintf("max CCB occupancy %d exceeds capacity %d", sim.MaxCCBOccupancy, capacity)
	}
	if (sim.MaxCCBOccupancy == 0) != (histTotal == 0) {
		return fmt.Sprintf("max occupancy %d inconsistent with %d buffered entries",
			sim.MaxCCBOccupancy, histTotal)
	}
	return ""
}
