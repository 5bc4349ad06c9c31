package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"vliwvp/internal/pipeline"
	"vliwvp/internal/workload"
)

// manifest is the part of BENCHMARK.json the self-tests hold the output to.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// tiny is the shortest run of a workload: one set-up and the fewest
// rounds (three when traced).
func tiny(workload string, seed int64) config {
	return config{Workload: workload, Seed: seed, SetupReps: 1, Trace: true}
}

func TestManifestNamesEveryWorkload(t *testing.T) {
	var names []string
	for _, w := range loadManifest(t).Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
}

// TestTinyRuns runs every workload on the default and a held-out seed. Each
// run must check clean, print exactly the manifest's metrics with their
// units, and trace every layer the workload reaches.
func TestTinyRuns(t *testing.T) {
	man := loadManifest(t)
	layers := map[string][]string{
		"sim-lattice":  {"core.run", "interp"},
		"cold-compile": {"exp", "lang", "opt", "profile", "speculate", "sched", "core.decode", "core.run", "interp"},
		"serve-mix":    {"serve.request", "serve.client_codec", "interp"},
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) { tinyRuns(t, man, w, layers[w]) })
	}
}

func tinyRuns(t *testing.T, man manifest, w string, layers []string) {
	kernels := map[int64][]string{}
	for _, seed := range []int64{1, 2} {
		cfg := tiny(w, seed)
		cfg.afterSetup = func(c *checker) {
			for k := range c.refs {
				kernels[seed] = append(kernels[seed], k)
			}
			slices.Sort(kernels[seed])
		}
		o, err := run(cfg)
		if err != nil {
			t.Fatalf("%s seed %d: %v", w, seed, err)
		}
		if o.failed != 0 || o.attempted == 0 || o.errorFrac() != 0 {
			t.Fatalf("%s seed %d: attempted %d failed %d: %v", w, seed, o.attempted, o.failed, o.mismatches)
		}
		checkMetrics(t, w+" end-to-end", o.endToEnd(), man.EndToEnd)
		checkMetrics(t, w+" per-layer", o.result().Metrics, man.PerLayer)
		st := computeSelfTimes(o.trace)
		for _, l := range layers {
			var total int64
			for _, m := range st.self {
				total += m[l]
			}
			if total <= 0 {
				t.Errorf("%s seed %d: no self time traced for layer %s", w, seed, l)
			}
		}
		if e2e := o.endToEnd(); e2e["setup_s"].Value <= 0 || e2e["throughput_ops_per_s"].Value <= 0 {
			t.Errorf("%s seed %d: nonpositive timing %+v", w, seed, e2e)
		}
	}
	if w != "sim-lattice" && slices.Equal(kernels[1], kernels[2]) {
		t.Errorf("%s: seeds 1 and 2 generated the same kernels", w)
	}
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, manifest lists %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: metric %s unit %q, manifest %q", what, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, w.Name, m.Value)
		}
	}
}

// TestCorruptedReferenceFails feeds each workload one corrupted reference
// value, and cold-compile one corrupted first-seen counter set; the run
// must count the failures and report itself incorrect.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, tc := range []struct {
		workload, kernel string
		counters         bool
	}{
		{"sim-lattice", "compress", false},
		{"cold-compile", "li", false},
		{"cold-compile", "swim", true},
		{"serve-mix", "inline0", false},
	} {
		t.Run(tc.workload+"/"+tc.kernel, func(t *testing.T) { corruptedRun(t, tc.workload, tc.kernel, tc.counters) })
	}
}

func corruptedRun(t *testing.T, workload, kernel string, counters bool) {
	cfg := tiny(workload, 1)
	cfg.Trace = false
	cfg.afterSetup = func(c *checker) {
		if counters {
			c.seen[kernel+"|cold"] = simCounts{Cycles: 1}
			return
		}
		r := c.refs[kernel]
		if r == nil {
			t.Fatalf("%s: no reference for %s", workload, kernel)
		}
		r.Value ^= 1
	}
	o, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if o.failed == 0 || o.result().Correct {
		t.Fatalf("%s: corrupted %s reference went unnoticed (attempted %d, failed %d)",
			workload, kernel, o.attempted, o.failed)
	}
	if !strings.Contains(strings.Join(o.mismatches, "\n"), kernel) {
		t.Errorf("%s: mismatches do not name %s: %v", workload, kernel, o.mismatches)
	}
}

// TestReferenceStepsMatchProfile pins profile.interp_steps: the reference
// run's step count equals what the profile pass interprets.
func TestReferenceStepsMatchProfile(t *testing.T) {
	for _, b := range append(workload.Generated(progenBase(1, 1), 3), workload.Tomcatv) {
		r, err := reference(b, scope{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := &pipeline.Ctx{Source: b.Source}
		plan := pipeline.Plan{Name: "front", Passes: []pipeline.Pass{pipeline.Lower{}, pipeline.Opt{}, pipeline.Profile{}}}
		if err := pipeline.NewManager().Run(plan, ctx); err != nil {
			t.Fatal(err)
		}
		if ctx.Prof.DynOps != r.Steps {
			t.Errorf("%s: profile interpreted %d operations, reference %d", b.Name, ctx.Prof.DynOps, r.Steps)
		}
	}
}

// TestSelfTimes checks the self-time arithmetic on a hand-built trace.
func TestSelfTimes(t *testing.T) {
	ts := newTraceSet()
	tr := ts.tracer()
	tr.spans = []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 50},
		{name: "b", parent: 1, start: 20, end: 30},
		{name: "b", parent: 0, start: 60, end: 70},
		{name: "setup", parent: -1, start: 200, end: 300},
		{name: "b", parent: 4, start: 210, end: 220},
	}
	st := computeSelfTimes(ts)
	want := map[string]int64{"op": 50, "a": 30, "b": 20}
	for name, ns := range want {
		if got := st.self["op"][name]; got != ns {
			t.Errorf("self(%s) = %d, want %d", name, got, ns)
		}
	}
	if ns, n := st.layer("b", func(root string) bool { return root == "setup" }); ns != 10 || n != 1 {
		t.Errorf("setup b = %d over %d roots, want 10 over 1", ns, n)
	}
}

// TestRatesUseOperationMedians checks the rates of a workload that repeats
// its operations: one pass takes the sum of each operation's median time,
// and a round cut short still adds its repeats.
func TestRatesUseOperationMedians(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		var out []time.Duration
		for _, x := range v {
			out = append(out, time.Duration(x)*time.Millisecond)
		}
		return out
	}
	round := func(lat []time.Duration, keys ...string) roundStat {
		st := roundStat{ops: len(lat), lat: lat, keys: keys, partial: len(keys) < 2}
		for range keys {
			st.cycles = append(st.cycles, 1_000_000)
		}
		for _, d := range lat {
			st.elapsed += d
		}
		return st
	}
	o := &outcome{rounds: []roundStat{
		round(ms(100, 300), "a", "b"),
		round(ms(200, 500), "b", "a"),
		round(ms(900), "a"),
	}, traced: []bool{false, false, false}}
	// a: 100, 500, 900 → 500; b: 300, 200 → 250; one pass takes 750 ms.
	ops, mcyc := o.rates()
	if want := 2 / 0.75; math.Abs(ops-want) > 1e-9 {
		t.Errorf("throughput %v, want %v", ops, want)
	}
	if want := 2 / 0.75; math.Abs(mcyc-want) > 1e-9 {
		t.Errorf("Mcycles/s %v, want %v", mcyc, want)
	}
}

// TestPerLayerCountsSkipCutRounds checks that a round cut short at the end
// of a run does not move the per-round simulated counts.
func TestPerLayerCountsSkipCutRounds(t *testing.T) {
	whole := roundStat{ops: 2, elapsed: time.Second, counts: simCounts{Cycles: 1000, StallSync: 10}}
	cut := roundStat{ops: 1, elapsed: time.Second, counts: simCounts{Cycles: 300, StallSync: 7}, partial: true}
	o := &outcome{cfg: config{Trace: true}, rounds: []roundStat{whole, whole, whole, cut},
		traced: []bool{false, true, false, true}}
	m := o.perLayer()
	if got := m["core.sim_cycles"].Value; got != 1000 {
		t.Errorf("core.sim_cycles = %v, want 1000", got)
	}
	if got := m["core.stall.sync"].Value; got != 10 {
		t.Errorf("core.stall.sync = %v, want 10", got)
	}
}
