package conform

import (
	"flag"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"vliwvp/internal/core"
	"vliwvp/internal/machine"
	"vliwvp/internal/progen"
	"vliwvp/internal/workload"
)

// -seeds sets the per-run program budget; CI pins it to 200 in the
// conformance job, local runs default smaller.
var seedBudget = flag.Int("seeds", 48, "number of generated programs the conformance suite checks")

// TestConformance is the suite's main entry: seedBudget generated
// programs, each checked across the full configuration lattice against
// all four metamorphic invariants.
func TestConformance(t *testing.T) {
	n := *seedBudget
	if testing.Short() && n > 8 {
		n = 8
	}
	fails, stats, err := Run(1, n, Options{Jobs: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	for _, f := range fails {
		t.Errorf("%s", f.Report())
	}

	// Vacuity guards: a passing run must actually have exercised the
	// machinery the invariants are about.
	t.Logf("conformance stats: %+v", stats)
	if stats.Programs != n {
		t.Errorf("checked %d programs, want %d", stats.Programs, n)
	}
	if stats.Predictions == 0 {
		t.Error("no load was ever predicted across the whole corpus")
	}
	if stats.Mispredicts == 0 {
		t.Error("no prediction ever missed: the recovery machinery went untested")
	}
	if stats.CCEExecuted == 0 {
		t.Error("the Compensation Code Engine never re-executed an operation")
	}
	if stats.CCEFlushed == 0 {
		t.Error("the Compensation Code Engine never flushed a correct entry")
	}
	if stats.MonotoneSweeps == 0 {
		t.Error("no program ran the CCB capacity sweep")
	}
	if !testing.Short() {
		if stats.PressureRuns == 0 {
			t.Error("no sweep run ever completed below the speculative window")
		}
		if stats.CCBStallCells == 0 {
			t.Error("no run ever stalled on a full CCB: the capacity limit went untested")
		}
	}
}

// -mem-seeds sets the memory-hierarchy conformance budget; CI's memory
// job pins it to 200 under -race.
var memSeedBudget = flag.Int("mem-seeds", 24, "number of generated programs checked across the memory lattice")

// TestMemConformance runs the invariant battery across the memory
// lattice: every cache configuration — multi-level, prefetching,
// I-cached, serial-recovery, CCB-starved — must stay architecturally
// byte-identical to the interpreter and keep its event stream, counters,
// and metrics snapshot mutually consistent; only cycles may move.
func TestMemConformance(t *testing.T) {
	n := *memSeedBudget
	if testing.Short() && n > 6 {
		n = 6
	}
	fails, stats, err := Run(1, n, Options{Jobs: runtime.GOMAXPROCS(0), Lattice: MemLattice()})
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	for _, f := range fails {
		t.Errorf("%s", f.Report())
	}

	// Vacuity guards: the lattice must actually have exercised the cache
	// model — misses, I-cache pressure, prefetch issue, and recovery
	// machinery under dynamic load latency.
	t.Logf("memory conformance stats: %+v", stats)
	if stats.Programs != n {
		t.Errorf("checked %d programs, want %d", stats.Programs, n)
	}
	if stats.MemMisses == 0 {
		t.Error("no demand load ever missed: the hierarchy went untested")
	}
	if stats.MemIMisses == 0 {
		t.Error("no instruction fetch ever missed the I-cache")
	}
	if stats.MemPrefetches == 0 {
		t.Error("the stride-stream prefetcher never issued a fill")
	}
	if stats.Mispredicts == 0 {
		t.Error("no prediction ever missed under a cache model: recovery with dynamic latency went untested")
	}
	if stats.CCEExecuted == 0 {
		t.Error("the Compensation Code Engine never re-executed under a cache model")
	}
}

// -pred-seeds sets the predictor-axis conformance budget; CI's predictor
// job pins it to 200 under -race.
var predSeedBudget = flag.Int("pred-seeds", 24, "number of generated programs checked across the predictor lattice")

// TestPredConformance runs the invariant battery across the predictor
// lattice: every stock scheme, gated and ungated, plus the alias-prone
// tiny VTAGE table and the serial-recovery gated machine must stay
// architecturally byte-identical to the interpreter with a mutually
// consistent event stream, counters, and snapshot; only cycles and the
// prediction/suppression mix may move.
func TestPredConformance(t *testing.T) {
	n := *predSeedBudget
	if testing.Short() && n > 6 {
		n = 6
	}
	fails, stats, err := Run(1, n, Options{Jobs: runtime.GOMAXPROCS(0), Lattice: PredLattice()})
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	for _, f := range fails {
		t.Errorf("%s", f.Report())
	}

	// Vacuity guards: the lattice must actually have exercised the zoo and
	// the gate — real trusted predictions, real suppressions, and real
	// gate true-positives (suppressed issues that were in fact wrong), or
	// the mis-gating fault injection below proves nothing.
	t.Logf("predictor conformance stats: %+v", stats)
	if stats.Programs != n {
		t.Errorf("checked %d programs, want %d", stats.Programs, n)
	}
	if stats.Predictions == 0 {
		t.Error("no load was ever predicted across the predictor lattice")
	}
	if stats.Mispredicts == 0 {
		t.Error("no trusted prediction ever missed: recovery under the zoo went untested")
	}
	if stats.Suppressed == 0 {
		t.Error("the confidence gate never suppressed an issue")
	}
	if stats.SuppressedWrong == 0 {
		t.Error("no suppressed issue was ever wrong: the gate's repair path went untested")
	}
	if stats.CCEExecuted == 0 {
		t.Error("the Compensation Code Engine never re-executed under the predictor lattice")
	}
}

// -branch-seeds sets the control-speculation conformance budget; CI's
// branch job pins it to 200 under -race.
var branchSeedBudget = flag.Int("branch-seeds", 24, "number of generated programs checked across the branch lattice")

// TestBranchConformance runs the invariant battery across the branch
// lattice: every direction-predictor scheme — static, bimodal, TAGE,
// shrunken-table TAGE, serial-recovery, CCB-starved, gated, and the
// cache-backed cells whose long check latencies keep speculation in
// flight across block boundaries — must stay architecturally
// byte-identical to the interpreter with mutually consistent events,
// counters, and snapshot; only timing may move with the control config.
func TestBranchConformance(t *testing.T) {
	n := *branchSeedBudget
	if testing.Short() && n > 6 {
		n = 6
	}
	fails, stats, err := Run(1, n, Options{Jobs: runtime.GOMAXPROCS(0), Lattice: BranchLattice()})
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	for _, f := range fails {
		t.Errorf("%s", f.Report())
	}

	// Vacuity guards: the lattice must actually have exercised the
	// control-speculation model — real predictions, real mispredicts, and
	// real wrong-path flushes of buffered speculation — or the
	// flush-elision fault injection below proves nothing.
	t.Logf("branch conformance stats: %+v", stats)
	if stats.Programs != n {
		t.Errorf("checked %d programs, want %d", stats.Programs, n)
	}
	if stats.BranchPredicts == 0 {
		t.Error("no conditional branch was ever direction-predicted")
	}
	if stats.BranchMispredicts == 0 {
		t.Error("no branch prediction ever missed: the flush machinery went untested")
	}
	if stats.BranchFlushed == 0 {
		t.Error("no mispredict ever flushed in-flight speculation: the flush path is vacuous")
	}
	if stats.Mispredicts == 0 {
		t.Error("no value prediction ever missed under the branch lattice")
	}
	if stats.CCEExecuted == 0 {
		t.Error("the Compensation Code Engine never re-executed under the branch lattice")
	}
}

// TestConformanceCatchesInjectedMisgateBug proves the predictor axis has
// teeth: with the confidence-gating logic deliberately broken (a
// suppressed-and-wrong site treated as verified correct, so dependents
// keep the stale predicted value), some seed must produce an
// architectural divergence with a minimized reproduction.
func TestConformanceCatchesInjectedMisgateBug(t *testing.T) {
	opt := Options{
		Lattice: PredLattice(),
		Tamper:  func(s *core.Simulator) { s.FaultConfidenceMisgate = true },
	}
	var caught *Failure
	for seed := int64(1); seed <= 40 && caught == nil; seed++ {
		f, _, err := CheckSeed(seed, opt)
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		caught = f
	}
	if caught == nil {
		t.Fatal("injected confidence mis-gating went undetected across 40 seeds")
	}
	if caught.Invariant != "arch" {
		t.Errorf("injected bug reported as %q, want \"arch\"", caught.Invariant)
	}
	if !strings.Contains(caught.Cell, "gated") {
		t.Errorf("divergence caught on cell %q; mis-gating can only bite gated cells", caught.Cell)
	}
	if caught.Source == "" || caught.Seed == 0 {
		t.Errorf("failure not reproducible: %+v", caught)
	}
	t.Logf("caught with seed %d on cell %s", caught.Seed, caught.Cell)
}

// TestConformanceCatchesInjectedCCEBug proves the suite's teeth: with a
// deliberately corrupted CCE write-back datapath, some seed must produce
// an architectural divergence, reported with the seed and a minimized
// program.
func TestConformanceCatchesInjectedCCEBug(t *testing.T) {
	opt := Options{
		Tamper: func(s *core.Simulator) { s.FaultCCEWritebackXor = 1 << 6 },
	}
	var caught *Failure
	var seed int64
	for seed = 1; seed <= 40 && caught == nil; seed++ {
		f, _, err := CheckSeed(seed, opt)
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		caught = f
	}
	if caught == nil {
		t.Fatal("injected CCE write-back corruption went undetected across 40 seeds")
	}
	if caught.Invariant != "arch" {
		t.Errorf("injected bug reported as %q, want \"arch\"", caught.Invariant)
	}
	rep := caught.Report()
	if !strings.Contains(rep, "-progen-seed") || caught.Seed == 0 {
		t.Errorf("report missing reproducible seed:\n%s", rep)
	}
	if !strings.Contains(rep, "func main()") {
		t.Errorf("report missing the minimized program:\n%s", rep)
	}
	if caught.Source == "" {
		t.Error("failure carries no minimized source")
	}
	t.Logf("caught with seed %d:\n%s", caught.Seed, rep)
}

// TestPerfectReplayBeatsTrained spot-checks the record/replay plumbing on
// one seed directly: CheckSeed must pass honestly (no tamper), and the
// stats must show mispredictions existed for at least one seed, meaning
// the perfect-replay comparison was non-trivial.
func TestCheckSeedCleanPasses(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		f, _, err := CheckSeed(seed, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if f != nil {
			t.Fatalf("seed %d failed:\n%s", seed, f.Report())
		}
	}
}

// -fuzz-seeds sets the random-cell sweep's program budget; CI's oracle
// job pins it to 32.
var fuzzSeedBudget = flag.Int("fuzz-seeds", 20, "number of generated programs the random-cell sweep checks")

// randomCell draws one machine configuration per seed: stock width,
// speculation threshold, CCB capacity (down to a single entry), and
// recovery model.
func randomCell(seed int64) Cell {
	rng := rand.New(rand.NewSource(seed))
	stock := machine.Stock()
	d := stock[rng.Intn(len(stock))]
	cell := Cell{Name: "random", D: d,
		Threshold:   []float64{0.50, 0.65, 0.80}[rng.Intn(3)],
		CCBCapacity: []int{0, 1, 2, 3, 4, 8, 64}[rng.Intn(7)],
	}
	if rng.Intn(2) == 1 {
		cell.SerialRecovery = true
		cell.Ctrl.BranchPenalty = rng.Intn(3)
	}
	return cell
}

func checkRandomCell(t *testing.T, seed int64) {
	t.Helper()
	cell := randomCell(seed)
	f, _, err := CheckSeed(seed, Options{Lattice: []Cell{cell}})
	if err != nil {
		t.Fatalf("seed %d (%+v): harness error: %v", seed, cell, err)
	}
	if f != nil {
		t.Errorf("seed %d (%+v):\n%s", seed, cell, f.Report())
	}
}

// TestRandomCellSweep checks each generated program on one randomly drawn
// machine configuration, so the sweep covers corners (odd CCB sizes, high
// thresholds, wide serial machines) no fixed lattice names.
func TestRandomCellSweep(t *testing.T) {
	n := *fuzzSeedBudget
	if testing.Short() && n > 4 {
		n = 4
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		checkRandomCell(t, seed)
	}
}

// FuzzRandomCell exposes the random-cell property to `go test -fuzz`,
// with the sweep's first seeds as corpus.
func FuzzRandomCell(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkRandomCell)
}

// mixedSrc speculates well but mispredicts often — the kind of program
// where a recovery bug in the simulator would surface. It prints, so the
// output channel is compared too.
const mixedSrc = `
var a[256]
var out[256]
func main() {
	for var i = 0; i < 256; i = i + 1 {
		if i % 8 < 7 { a[i] = 5 } else { a[i] = (i * 2654435761) % 1000 }
	}
	var s = 0
	for var i = 0; i < 256; i = i + 1 {
		var x = a[i]
		var y = x * 3 + 7
		out[i] = y
		s = s + y
	}
	print(s)
	return s
}`

// TestCheckSourceAgrees runs the battery over a named program on both
// recovery models and a starved CCB.
func TestCheckSourceAgrees(t *testing.T) {
	lattice := []Cell{
		{Name: "w4-dual", D: machine.W4},
		{Name: "w4-ccb2", D: machine.W4, CCBCapacity: 2},
		{Name: "w8-serial", D: machine.W8, SerialRecovery: true, Ctrl: machine.DefaultControl()},
		{Name: "w4-serial-bp0", D: machine.W4, SerialRecovery: true},
	}
	f, st, err := CheckSource("mixed", mixedSrc, Options{Lattice: lattice})
	if err != nil {
		t.Fatal(err)
	}
	if f != nil {
		t.Fatalf("unexpected failure:\n%s", f.Report())
	}
	if st.Mispredicts == 0 {
		t.Error("mixed program never mispredicted: the recovery paths went untested")
	}
}

// TestDiffDetectsAndMinimizes drives the failure path with a doctored
// reference, since the simulator (correctly) agrees with the real one:
// every doctored observable must show up in archDiff, and a wrong return
// value — which reproduces under any configuration — must shrink to an
// empty scheme map and a CCB below the default.
func TestDiffDetectsAndMinimizes(t *testing.T) {
	s, err := load("mixed", mixedSrc)
	if err != nil {
		t.Fatal(err)
	}
	cell := Cell{Name: "w4-dual", D: machine.W4}
	cp, err := PrepareCell(s.prog, s.prof, cell)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Schemes) == 0 {
		t.Fatal("mixed program has no prediction sites")
	}
	sim := cp.NewSim(cell)
	v, err := sim.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	ref := s.ref
	if d := archDiff(ref, v, sim); d != "" {
		t.Fatalf("honest diff: %s", d)
	}
	line := append([]string(nil), ref.output...)
	line[0] += "0"
	word := append([]uint64(nil), ref.mem...)
	word[len(word)-1]++
	for name, doctored := range map[string]*refResult{
		"value":       {value: ref.value + 1, output: ref.output, mem: ref.mem},
		"output line": {value: ref.value, output: line, mem: ref.mem},
		"memory word": {value: ref.value, output: ref.output, mem: word},
		"memory size": {value: ref.value, output: ref.output, mem: ref.mem[:len(ref.mem)-1]},
	} {
		if archDiff(doctored, v, sim) == "" {
			t.Errorf("doctored %s went unnoticed", name)
		}
	}

	s.ref = &refResult{value: ref.value + 1, output: ref.output, mem: ref.mem}
	f := &Failure{Invariant: "arch", Cell: cell.Name}
	if err := s.shrinkArch(f, Options{Lattice: []Cell{cell}}); err != nil {
		t.Fatal(err)
	}
	if f.Schemes == nil || len(f.Schemes) != 0 {
		t.Errorf("minimization left scheme map %v, want empty", f.Schemes)
	}
	if f.CCB <= 0 || f.CCB >= core.DefaultCCBCapacity {
		t.Errorf("minimization reported CCB %d, want in [1, %d)", f.CCB, core.DefaultCCBCapacity)
	}
}

// TestCheckBenchmarks runs the battery over the stock kernels on the
// kernel lattice, in parallel.
func TestCheckBenchmarks(t *testing.T) {
	benches := workload.All()
	if testing.Short() {
		benches = benches[:2]
	}
	fails, st, err := CheckBenchmarks(benches, Options{Jobs: 8, Lattice: KernelLattice(machine.W4)})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fails {
		if f != nil {
			t.Errorf("%s:\n%s", benches[i].Name, f.Report())
		}
	}
	if st.Programs != len(benches) || st.Mispredicts == 0 || st.CCEExecuted == 0 {
		t.Errorf("kernels did not exercise recovery: %+v", st)
	}
}

// TestCycleIdentityHasTeeth proves invariant 4's cycle accounting can
// fail: one stall cycle charged beyond the issued and stalled cycles must
// be named by the diff.
func TestCycleIdentityHasTeeth(t *testing.T) {
	prog, prof, err := Compile(progen.Render(progen.Generate(1, progen.Options{})))
	if err != nil {
		t.Fatal(err)
	}
	cell := Cell{Name: "w4-dual", D: machine.W4}
	cp, err := PrepareCell(prog, prof, cell)
	if err != nil {
		t.Fatal(err)
	}
	sim := cp.NewSim(cell)
	sink := &countSink{}
	sim.Sink = sink
	if _, err := sim.Run("main"); err != nil {
		t.Fatal(err)
	}
	if d := sink.diff(sim, cell); d != "" {
		t.Fatalf("clean run: %s", d)
	}
	sim.StallRedirect++
	if d := sink.diff(sim, cell); !strings.HasPrefix(d, "Cycles vs Instrs+") {
		t.Errorf("bumped StallRedirect: diff %q does not name the cycle identity", d)
	}
}
