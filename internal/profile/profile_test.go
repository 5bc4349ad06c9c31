package profile_test

import (
	"testing"

	"vliwvp/internal/interp"
	"vliwvp/internal/ir"
	"vliwvp/internal/lang"
	"vliwvp/internal/opt"
	"vliwvp/internal/predict"
	"vliwvp/internal/profile"
	"vliwvp/internal/workload"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	opt.Optimize(p)
	return p
}

// findLoads returns the op IDs of all loads in the function, in order.
func findLoads(f *ir.Func) []struct{ Block, OpID int } {
	var out []struct{ Block, OpID int }
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			if op.Code == ir.Load {
				out = append(out, struct{ Block, OpID int }{b.ID, op.ID})
			}
		}
	}
	return out
}

func TestBlockFrequencies(t *testing.T) {
	src := `
func main() {
	var s = 0
	for var i = 0; i < 10; i = i + 1 {
		s = s + i
	}
	return s
}`
	prog := compile(t, src)
	prof, err := profile.Collect(prog, "main")
	if err != nil {
		t.Fatal(err)
	}
	main := prog.Func("main")
	// Find the loop body block: it should have executed exactly 10 times.
	// The condition block executes 11 times.
	var counts []int64
	for _, b := range main.Blocks {
		counts = append(counts, prof.Freq("main", b.ID))
	}
	has10, has11 := false, false
	for _, c := range counts {
		if c == 10 {
			has10 = true
		}
		if c == 11 {
			has11 = true
		}
	}
	if !has10 || !has11 {
		t.Errorf("block freqs = %v, want a 10 (body) and an 11 (condition)", counts)
	}
	if prof.Freq("main", main.Entry) != 1 {
		t.Errorf("entry freq = %d, want 1", prof.Freq("main", main.Entry))
	}
}

func TestStridePredictableLoadProfilesHigh(t *testing.T) {
	src := `
var a[256]
func main() {
	for var i = 0; i < 256; i = i + 1 { a[i] = i * 4 }
	var s = 0
	for var i = 0; i < 256; i = i + 1 { s = s + a[i] }
	return s
}`
	prog := compile(t, src)
	prof, err := profile.Collect(prog, "main")
	if err != nil {
		t.Fatal(err)
	}
	// The load in the second loop reads 0,4,8,... — stride predictable.
	best := 0.0
	var bestLP *profile.LoadProfile
	for _, lp := range prof.Loads {
		if lp.Count >= 256 && lp.Rate() > best {
			best = lp.Rate()
			bestLP = lp
		}
	}
	if bestLP == nil || best < 0.95 {
		t.Fatalf("no highly stride-predictable load found, best %v", best)
	}
	if bestLP.Best() != profile.SchemeStride {
		t.Errorf("best scheme = %v, want stride (stride %v vs fcm %v)",
			bestLP.Best(), bestLP.StrideRate, bestLP.FCMRate)
	}
}

func TestUnpredictableLoadProfilesLow(t *testing.T) {
	src := `
var a[509]
func main() {
	var x = 1
	for var i = 0; i < 509; i = i + 1 {
		x = (x * 1103515245 + 12345) % 509
		if x < 0 { x = x + 509 }
		a[i] = x
	}
	var s = 0
	var j = 1
	for var i = 0; i < 509; i = i + 1 {
		s = s + a[j]
		j = (j * 263 + 71) % 509
	}
	return s
}`
	prog := compile(t, src)
	prof, err := profile.Collect(prog, "main")
	if err != nil {
		t.Fatal(err)
	}
	// The pseudo-random-indexed load must profile below the paper's 65%
	// selection threshold.
	for _, lp := range prof.Loads {
		if lp.Count >= 500 && lp.Rate() > 0.65 {
			t.Errorf("pseudo-random load %v rate %v exceeds 0.65 (stride %v, fcm %v)",
				lp.Key, lp.Rate(), lp.StrideRate, lp.FCMRate)
		}
	}
}

func TestCollectOutcomesMaskTally(t *testing.T) {
	// One loop, one perfectly predictable load (constant value).
	src := `
var g = 5
func main() {
	var s = 0
	for var i = 0; i < 20; i = i + 1 {
		s = s + g
	}
	return s
}`
	prog := compile(t, src)
	main := prog.Func("main")
	loads := findLoads(main)
	if len(loads) != 1 {
		t.Fatalf("want exactly 1 load, got %d", len(loads))
	}
	sel := profile.NewSelection()
	sel.Add("main", loads[0].Block, loads[0].OpID, profile.SchemeStride)

	out, err := profile.CollectOutcomes(prog, sel, "main")
	if err != nil {
		t.Fatal(err)
	}
	bk := profile.BlockKey{Func: "main", Block: loads[0].Block}
	if out.Executions[bk] != 20 {
		t.Fatalf("executions = %d, want 20", out.Executions[bk])
	}
	correct := out.AllCorrectCount(bk, 1)
	wrong := out.AllWrongCount(bk)
	// First iteration is a cold miss; the remaining 19 hit.
	if correct != 19 || wrong != 1 {
		t.Errorf("correct=%d wrong=%d, want 19/1 (masks: %v)", correct, wrong, out.MaskCounts[bk])
	}
}

func TestCollectOutcomesJointMask(t *testing.T) {
	// Two loads in the same block: one constant (predictable after warmup),
	// one alternating 0/1 with period 2 — stride mispredicts it forever,
	// so per-instance masks must show exactly one of the two bits hitting.
	src := `
var c = 7
var toggle[2]
func main() {
	toggle[1] = 1
	var s = 0
	for var i = 0; i < 40; i = i + 1 {
		s = s + c + toggle[i % 2]
	}
	return s
}`
	prog := compile(t, src)
	main := prog.Func("main")
	loads := findLoads(main)
	if len(loads) < 2 {
		t.Fatalf("want >= 2 loads, got %d", len(loads))
	}
	// Select the two loads that share a block.
	byBlock := map[int][]int{}
	for _, l := range loads {
		byBlock[l.Block] = append(byBlock[l.Block], l.OpID)
	}
	var bk profile.BlockKey
	var ids []int
	for blk, ops := range byBlock {
		if len(ops) == 2 {
			bk = profile.BlockKey{Func: "main", Block: blk}
			ids = ops
		}
	}
	if ids == nil {
		t.Fatalf("no block with 2 loads: %v", byBlock)
	}
	sel := profile.NewSelection()
	for _, id := range ids {
		sel.Add("main", bk.Block, id, profile.SchemeStride)
	}
	out, err := profile.CollectOutcomes(prog, sel, "main")
	if err != nil {
		t.Fatal(err)
	}
	if out.Executions[bk] != 40 {
		t.Fatalf("executions = %d, want 40", out.Executions[bk])
	}
	// The constant load hits from iteration 2 on; the toggling load mostly
	// misses. So most instances have exactly one bit set.
	oneBit := out.MaskCounts[bk][1] + out.MaskCounts[bk][2]
	if oneBit < 30 {
		t.Errorf("one-bit masks = %d of 40, want most (masks %v)", oneBit, out.MaskCounts[bk])
	}
	if got := out.AllCorrectCount(bk, 2); got > 10 {
		t.Errorf("all-correct = %d, want few", got)
	}
}

func TestOutcomesAcrossCalls(t *testing.T) {
	// The selected load sits in a block that also calls a function which
	// itself executes blocks; the instance mask must still be attributed
	// to the caller's block.
	src := `
var g = 3
func work(x) {
	var t = 0
	for var i = 0; i < 3; i = i + 1 { t = t + x }
	return t
}
func main() {
	var s = 0
	for var i = 0; i < 10; i = i + 1 {
		s = s + work(g)
	}
	return s
}`
	prog := compile(t, src)
	main := prog.Func("main")
	loads := findLoads(main)
	if len(loads) != 1 {
		t.Fatalf("want 1 load in main, got %d", len(loads))
	}
	sel := profile.NewSelection()
	sel.Add("main", loads[0].Block, loads[0].OpID, profile.SchemeStride)
	out, err := profile.CollectOutcomes(prog, sel, "main")
	if err != nil {
		t.Fatal(err)
	}
	bk := profile.BlockKey{Func: "main", Block: loads[0].Block}
	if out.Executions[bk] != 10 {
		t.Fatalf("executions = %d, want 10", out.Executions[bk])
	}
	if got := out.AllCorrectCount(bk, 1); got != 9 {
		t.Errorf("all-correct = %d, want 9 (cold miss then hits)", got)
	}
}

func TestProfileRateAndBestAgree(t *testing.T) {
	lp := &profile.LoadProfile{StrideRate: 0.3, FCMRate: 0.8}
	if lp.Rate() != 0.8 || lp.Best() != profile.SchemeFCM {
		t.Errorf("Rate/Best inconsistent: %v %v", lp.Rate(), lp.Best())
	}
	lp = &profile.LoadProfile{StrideRate: 0.9, FCMRate: 0.2}
	if lp.Rate() != 0.9 || lp.Best() != profile.SchemeStride {
		t.Errorf("Rate/Best inconsistent: %v %v", lp.Rate(), lp.Best())
	}
	// Equal profiled rates tie-break to the stride scheme, matching the
	// runtime hybrid's tournament rule.
	lp = &profile.LoadProfile{StrideRate: 0.7, FCMRate: 0.7}
	if lp.Rate() != 0.7 || lp.Best() != profile.SchemeStride {
		t.Errorf("tied rates chose %v (rate %v), want stride", lp.Best(), lp.Rate())
	}
}

// TestSchemeNamesRoundTrip pins Scheme.String and SchemeByName as exact
// inverses over the whole zoo, and SchemeByName's rejection of anything
// else — the speculate pass and the CLIs both rely on the round trip.
func TestSchemeNamesRoundTrip(t *testing.T) {
	schemes := []profile.Scheme{
		profile.SchemeStride, profile.SchemeFCM, profile.SchemeLast,
		profile.SchemeLNV, profile.SchemeVTAGE, profile.SchemeHybrid,
	}
	seen := map[string]bool{}
	for _, s := range schemes {
		name := s.String()
		if seen[name] {
			t.Fatalf("duplicate scheme name %q", name)
		}
		seen[name] = true
		got, ok := profile.SchemeByName(name)
		if !ok || got != s {
			t.Errorf("SchemeByName(%q) = %v, %v; want %v, true", name, got, ok, s)
		}
	}
	for _, bad := range []string{"", "profiled", "auto", "tage", "STRIDE"} {
		if _, ok := profile.SchemeByName(bad); ok {
			t.Errorf("SchemeByName(%q) accepted a non-forceable name", bad)
		}
	}
}

// TestRateOfAndZooBest pins the zoo-wide argmax: RateOf must read the
// matching meter, and ZooBest must break ties toward the paper's
// families so "auto" degenerates to the legacy choice when the new
// schemes don't strictly win.
func TestRateOfAndZooBest(t *testing.T) {
	lp := &profile.LoadProfile{
		StrideRate: 0.5, FCMRate: 0.6, LastRate: 0.3,
		LNVRate: 0.4, VTAGERate: 0.7, HybridRate: 0.6,
	}
	want := map[profile.Scheme]float64{
		profile.SchemeStride: 0.5, profile.SchemeFCM: 0.6,
		profile.SchemeLast: 0.3, profile.SchemeLNV: 0.4,
		profile.SchemeVTAGE: 0.7, profile.SchemeHybrid: 0.6,
	}
	for s, r := range want {
		if got := lp.RateOf(s); got != r {
			t.Errorf("RateOf(%v) = %v, want %v", s, got, r)
		}
	}
	if s, r := lp.ZooBest(); s != profile.SchemeVTAGE || r != 0.7 {
		t.Errorf("ZooBest = %v, %v; want vtage, 0.7", s, r)
	}
	// A tie across every family must pick stride (zoo order head).
	tie := &profile.LoadProfile{
		StrideRate: 0.8, FCMRate: 0.8, LastRate: 0.8,
		LNVRate: 0.8, VTAGERate: 0.8, HybridRate: 0.8,
	}
	if s, r := tie.ZooBest(); s != profile.SchemeStride || r != 0.8 {
		t.Errorf("tied ZooBest = %v, %v; want stride, 0.8", s, r)
	}
	// The paper's pair beats an equal newcomer: fcm over vtage at 0.9.
	legacy := &profile.LoadProfile{FCMRate: 0.9, VTAGERate: 0.9}
	if s, _ := legacy.ZooBest(); s != profile.SchemeFCM {
		t.Errorf("fcm/vtage tie broke to %v, want fcm", s)
	}
}

// TestProfileCloneIsDeep pins Clone's independence contract: the
// predictor-family ablation rescopes rates on a clone, and the shared
// cached profile must never see it. Load and Edge are the accessors the
// rescoring path reads through.
func TestProfileCloneIsDeep(t *testing.T) {
	src := `
var a[8]
func main() {
	var s = 0
	for var i = 0; i < 8; i = i + 1 {
		a[i] = i
	}
	for var j = 0; j < 8; j = j + 1 {
		s = s + a[j]
	}
	return s
}
`
	prog := compile(t, src)
	prof, err := profile.Collect(prog, "main")
	if err != nil {
		t.Fatal(err)
	}
	loads := findLoads(prog.Funcs[0])
	if len(loads) == 0 {
		t.Fatal("kernel has no loads")
	}
	lp := prof.Load("main", loads[0].OpID)
	if lp == nil {
		t.Fatal("Load returned nil for an executed site")
	}
	clone := prof.Clone()
	if clone.DynOps != prof.DynOps || len(clone.Loads) != len(prof.Loads) {
		t.Fatalf("clone shape differs: %d/%d loads, %d/%d ops",
			len(clone.Loads), len(prof.Loads), clone.DynOps, prof.DynOps)
	}
	clp := clone.Load("main", loads[0].OpID)
	orig := lp.StrideRate
	clp.StrideRate = -1
	if lp.StrideRate != orig {
		t.Error("mutating a cloned LoadProfile reached the original")
	}
	for k, v := range prof.EdgeFreq {
		if clone.Edge(k.Func, k.From, k.To) != v {
			t.Errorf("edge %v: clone %d != original %d", k, clone.Edge(k.Func, k.From, k.To), v)
		}
		clone.EdgeFreq[k] = v + 1
		if prof.Edge(k.Func, k.From, k.To) != v {
			t.Error("mutating a cloned edge count reached the original")
		}
		break
	}
}

// TestCollectMatchesRateMeters replays every stock kernel's load-value
// streams through one predict.RateMeter per scheme — hybrid on its own
// predict.Hybrid — and requires every LoadProfile rate from Collect to be
// bit-equal to them: memoized hashing and the derived hybrid change no
// profiled rate.
func TestCollectMatchesRateMeters(t *testing.T) {
	for _, b := range workload.All() {
		prog, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profile.Collect(prog, "main")
		if err != nil {
			t.Fatal(err)
		}
		streams := map[profile.LoadKey][]uint64{}
		m := interp.New(prog)
		m.Hooks.OnLoad = func(f *ir.Func, op *ir.Op, addr int, value uint64, depth int) {
			k := profile.LoadKey{Func: f.Name, OpID: op.ID}
			streams[k] = append(streams[k], value)
		}
		if _, err := m.Run("main"); err != nil {
			t.Fatal(err)
		}
		if len(prof.Loads) != len(streams) {
			t.Fatalf("%s: %d profiled sites, %d load streams", b.Name, len(prof.Loads), len(streams))
		}
		for k, seq := range streams {
			lp := prof.Loads[k]
			if lp == nil || lp.Count != int64(len(seq)) {
				t.Fatalf("%s %v: profile %+v, stream of %d values", b.Name, k, lp, len(seq))
			}
			want := map[profile.Scheme]predict.Predictor{
				profile.SchemeStride: predict.NewStride(),
				profile.SchemeFCM:    predict.NewFCM(predict.DefaultFCMOrder, predict.DefaultFCMTableBits),
				profile.SchemeLast:   predict.NewLastValue(),
				profile.SchemeLNV:    predict.NewLastN(predict.DefaultLNVDepth),
				profile.SchemeVTAGE:  predict.NewVTAGE(predict.DefaultVTAGEBits).Site(0),
				profile.SchemeHybrid: predict.NewHybrid(predict.DefaultFCMOrder, predict.DefaultFCMTableBits),
			}
			for s, p := range want {
				meter := predict.RateMeter{P: p}
				for _, v := range seq {
					meter.Observe(v)
				}
				if got := lp.RateOf(s); got != meter.Rate() {
					t.Errorf("%s %v: %v rate %v, RateMeter %v", b.Name, k, s, got, meter.Rate())
				}
			}
		}
	}
}
