package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"vliwvp/internal/core"
	"vliwvp/internal/ddg"
	"vliwvp/internal/ifconv"
	"vliwvp/internal/interp"
	"vliwvp/internal/ir"
	"vliwvp/internal/lang"
	"vliwvp/internal/machine"
	"vliwvp/internal/opt"
	"vliwvp/internal/profile"
	"vliwvp/internal/regions"
	"vliwvp/internal/sched"
	"vliwvp/internal/speculate"
)

// randomPipelineProgram emits a random but deterministic VL program mixing
// predictable loads (constant and strided arrays), unpredictable loads
// (pseudo-random contents and indices), stores, branches, and a helper
// call, so the full transform surface gets exercised.
func randomPipelineProgram(rng *rand.Rand) string {
	consts := []string{"3", "5", "7", "11", "13"}
	ops := []string{"+", "-", "*", "&", "|", "^"}
	expr := func(vars []string, depth int) string {
		v := vars[rng.Intn(len(vars))]
		for i := 0; i < 1+rng.Intn(depth+1); i++ {
			v = "(" + v + " " + ops[rng.Intn(len(ops))] + " " + consts[rng.Intn(len(consts))] + ")"
		}
		return v
	}

	// Random straight-line body fragments over x, y, z, plus loads.
	vars := []string{"x", "y", "z"}
	var body string
	loads := []string{
		"steady[i & 63]",      // constant contents: highly predictable
		"ramp[i & 63]",        // strided contents: stride predictable
		"noisy[(x ^ i) & 63]", // data-dependent index: unpredictable
	}
	for i := 0; i < 2+rng.Intn(4); i++ {
		target := vars[rng.Intn(len(vars))]
		if rng.Intn(2) == 0 {
			body += fmt.Sprintf("\t\t%s = %s + %s\n", target, loads[rng.Intn(len(loads))], expr(vars, 1))
		} else {
			body += fmt.Sprintf("\t\t%s = %s\n", target, expr(vars, 2))
		}
	}
	// A conditional store and a data-dependent branch.
	body += fmt.Sprintf("\t\tout[i & 63] = %s\n", expr(vars, 1))
	body += fmt.Sprintf("\t\tif (%s) & 3 == 0 { z = z + helper(x & 15) } else { y = y ^ z }\n", expr(vars, 1))

	return fmt.Sprintf(`
var steady[64]
var ramp[64]
var noisy[64]
var out[64]
func helper(k) {
	var t = 0
	while k > 0 {
		t = t + k
		k = k - 1
	}
	return t
}
func main() {
	for var i = 0; i < 64; i = i + 1 {
		steady[i] = 42
		ramp[i] = i * 6
		noisy[i] = (i * 2654435761) %% 251
	}
	var x = 1
	var y = 2
	var z = 3
	for var i = 0; i < 96; i = i + 1 {
%s	}
	var chk = x + y * 31 + z * 1009
	for var i = 0; i < 64; i = i + 1 { chk = chk ^ (out[i] + i) }
	return chk
}`, body)
}

// TestPropertyFullPipelinePreservesSemantics is the repository's strongest
// invariant: for random programs, the complete pipeline — optionally the
// optimizer, if-conversion and superblock formation, then profile,
// speculate, schedule, and execute on the dual-engine machine with live
// predictors — must produce the same result, output, and memory image as
// the sequential interpreter, on every machine width.
func TestPropertyFullPipelinePreservesSemantics(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomPipelineProgram(rng)
		d := machine.Stock()[rng.Intn(len(machine.Stock()))]

		sim, orig := buildSimWithPasses(t, src, d, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0)
		gotV, err := sim.Run("main")
		if err != nil {
			t.Logf("seed %d (%s): simulate: %v", seed, d.Name, err)
			return false
		}
		m := interp.New(orig)
		wantV, err := m.RunMain()
		if err != nil {
			t.Logf("seed %d: interp: %v", seed, err)
			return false
		}
		if gotV != wantV {
			t.Logf("seed %d (%s): result %d != %d\n%s", seed, d.Name, gotV, wantV, src)
			return false
		}
		simMem := sim.Memory()
		for i := range m.Mem {
			if simMem[i] != m.Mem[i] {
				t.Logf("seed %d (%s): memory[%d] %d != %d", seed, d.Name, i, simMem[i], m.Mem[i])
				return false
			}
		}
		return true
	}
	n := 25
	if testing.Short() {
		n = 5
	}
	if err := quick.Check(check, &quick.Config{MaxCount: n}); err != nil {
		t.Error(err)
	}
}

// TestOutcomeMaskAlignment pins the contract shared by three packages: bit
// i of a profile.Outcomes mask, position i in core.BlockAnalysis.Sites, and
// the i-th ascending-load-op-ID site of speculate's BlockInfo all denote
// the same prediction. A program whose first load (lower op ID) always hits
// after warmup and whose second always misses must tally masks of exactly
// 0b01.
func TestOutcomeMaskAlignment(t *testing.T) {
	src := `
var steady[64]
var chaos[64]
func main() {
	for var i = 0; i < 64; i = i + 1 {
		steady[i] = 7
		chaos[i] = (i * 40503) % 173
	}
	var s = 0
	var j = 1
	for var i = 0; i < 640; i = i + 1 {
		var a = steady[i & 63]
		var b = chaos[j]
		s = s + a * 3 + b * 5 + (a ^ b)
		j = (j * 37 + 11) % 64
	}
	return s
}`
	d := machine.W4
	sim, orig := buildSim(t, src, true, d)
	_ = sim

	// Re-derive the pipeline pieces to inspect the masks directly.
	// buildSim already validated schedules; here we want the Outcomes.
	prof, err := profile.Collect(orig, "main")
	if err != nil {
		t.Fatal(err)
	}
	res := transformForTest(t, orig, prof, d)
	var twoSite *profile.BlockKey
	for bk, info := range res.Blocks {
		if len(info.SiteIDs) == 2 {
			bk := bk
			twoSite = &bk
		}
	}
	if twoSite == nil {
		t.Skip("selection did not pick both loads in one block; predictability shifted")
	}
	out, err := profile.CollectOutcomes(orig, res.Selection, "main")
	if err != nil {
		t.Fatal(err)
	}
	info := res.Blocks[*twoSite]
	s0, s1 := res.Sites[info.SiteIDs[0]], res.Sites[info.SiteIDs[1]]
	if s0.LoadOpID >= s1.LoadOpID {
		t.Fatalf("site order not ascending by load op ID: %d, %d", s0.LoadOpID, s1.LoadOpID)
	}
	// steady (first load in source, lower op ID) hits; chaos misses.
	masks := out.MaskCounts[*twoSite]
	if masks[0b01] == 0 {
		t.Fatalf("expected dominant mask 0b01 (first site hits), got %v", masks)
	}
	if masks[0b01] < masks[0b10] {
		t.Errorf("mask bit order flipped: steady-hit mask %d < chaos-hit mask %d (all: %v)",
			masks[0b01], masks[0b10], masks)
	}
	// And the analysis must list the steady site first.
	blk := res.Prog.Func(twoSite.Func).Blocks[twoSite.Block]
	an, err := coreAnalyze(t, blk)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Sites) != 2 || an.Sites[0].PredID != s0.ID || an.Sites[1].PredID != s1.ID {
		t.Errorf("analysis site order diverges from BlockInfo: %+v vs [%d %d]",
			an.Sites, s0.ID, s1.ID)
	}
}

// buildSimWithPasses is buildSim with the optimizer, if-conversion and
// region formation each optional, applied to BOTH the golden program and
// the simulated one. Skipping the optimizer keeps unoptimized programs
// covered end to end.
func buildSimWithPasses(t *testing.T, src string, d *machine.Desc, useIfconv, useRegions, useOpt bool) (*core.Simulator, *ir.Program) {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if useOpt {
		opt.Optimize(prog)
	}
	if useIfconv {
		ifconv.Convert(prog, ifconv.DefaultConfig())
	}
	if useRegions {
		prof0, err := profile.Collect(prog, "main")
		if err != nil {
			t.Fatal(err)
		}
		regions.Form(prog, prof0, regions.DefaultConfig())
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("invalid after passes: %v", err)
	}

	prof, err := profile.Collect(prog, "main")
	if err != nil {
		t.Fatal(err)
	}
	res, err := speculate.Transform(prog, prof, speculate.DefaultConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	schemes := map[int]profile.Scheme{}
	for _, site := range res.Sites {
		schemes[site.ID] = site.Scheme
	}
	ps := &sched.ProgSched{Prog: res.Prog, Funcs: map[string]*sched.FuncSched{}}
	for _, f := range res.Prog.Funcs {
		fs := &sched.FuncSched{F: f, Blocks: make([]*sched.BlockSched, len(f.Blocks))}
		for i, b := range f.Blocks {
			g := speculate.BuildGraph(b, d, ddg.Options{})
			fs.Blocks[i] = sched.ScheduleBlock(b, g, d)
			if err := fs.Blocks[i].Validate(g, d); err != nil {
				t.Fatalf("%s b%d: %v", f.Name, i, err)
			}
		}
		ps.Funcs[f.Name] = fs
	}
	sim, err := core.NewSimulator(res.Prog, ps, d, schemes)
	if err != nil {
		t.Fatal(err)
	}
	return sim, prog
}

// transformForTest applies the speculation pass with the default config.
func transformForTest(t *testing.T, prog *ir.Program, prof *profile.Profile, d *machine.Desc) *speculate.Result {
	t.Helper()
	res, err := speculate.Transform(prog, prof, speculate.DefaultConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// coreAnalyze wraps core.Analyze for the alignment test.
func coreAnalyze(t *testing.T, b *ir.Block) (*core.BlockAnalysis, error) {
	t.Helper()
	return core.Analyze(b)
}
