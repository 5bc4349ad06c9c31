package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run builds its workload; setup_s is the
// median, so one slow set-up (a cold page cache, a GC) does not move it.
const setupReps = 3

var workloadNames = []string{"sim-lattice", "cold-compile", "serve-mix"}

func newBench(name string) bench {
	switch name {
	case "sim-lattice":
		return &lattice{}
	case "cold-compile":
		return &coldCompile{}
	case "serve-mix":
		return &serveMix{}
	}
	return nil
}

// bench is one workload.
type bench interface {
	// setup derives the workload's inputs from seed, computes their
	// interpreter references into chk, and does every untimed preparation
	// (compile-cache fill, server start). ts is nil in untraced runs.
	setup(seed int64, chk *checker, ts *traceSet) error
	// round runs one fixed unit of timed work; ts is nil for an untraced
	// round. A positive budget lets a workload whose operations run one
	// at a time stop the round at the first operation boundary after its
	// timed work reaches budget; 0 runs the whole round.
	round(i int, ts *traceSet, budget time.Duration) (roundStat, error)
	// close releases what setup started.
	close() error
}

// roundStat is what one round measured.
type roundStat struct {
	ops     int
	elapsed time.Duration   // host time of the timed work
	lat     []time.Duration // per-operation latency
	counts  simCounts       // simulated counters summed over the round
	// keys names each operation, parallel to lat, when every round
	// repeats the same operations (nil otherwise); cycles holds each of
	// those operations' simulated cycles.
	keys   []string
	cycles []int64
	// partial marks a round its budget cut short.
	partial bool
	// extra holds per-round layer counts a workload reads from the
	// program's public metrics (serve-mix: the daemon's /metrics).
	extra map[string]float64
}

// config is one invocation.
type config struct {
	Workload  string
	Seed      int64
	Duration  time.Duration
	Trace     bool
	SetupReps int
	// afterSetup, when set, sees the references before timing starts
	// (the self-tests corrupt one to prove the check fails).
	afterSetup func(*checker)
}

// outcome is a finished run.
type outcome struct {
	cfg        config
	setup      []float64
	rounds     []roundStat
	traced     []bool
	trace      *traceSet
	attempted  int
	failed     int
	mismatches []string
	peakRSSMB  float64
}

// run sets the workload up SetupReps times, then runs rounds until the
// timed work reaches Duration. The first round (the first three of a
// traced run) always runs whole, so every operation has a sample; a later
// round may stop at an operation boundary once the run's timed work
// reaches Duration.
func run(cfg config) (*outcome, error) {
	o := &outcome{cfg: cfg}
	if cfg.Trace {
		o.trace = newTraceSet()
	}
	reps := max(cfg.SetupReps, 1)
	var b bench
	var chk *checker
	for rep := 0; rep < reps; rep++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		// Each set-up starts from a collected heap, so none pays for the
		// garbage of the one before.
		runtime.GC()
		b, chk = newBench(cfg.Workload), newChecker()
		t0 := time.Now()
		if err := b.setup(cfg.Seed, chk, o.trace); err != nil {
			b.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	if cfg.afterSetup != nil {
		cfg.afterSetup(chk)
	}
	runtime.GC() // leave set-up garbage out of the timed rounds

	// A traced run's round 0 is an untraced warm-up; after it, odd rounds
	// are traced and even ones are not, so the two alternate back to back.
	minRounds := 1
	if cfg.Trace {
		minRounds = 3
	}
	var measured time.Duration
	for i := 0; i < minRounds || measured < cfg.Duration; i++ {
		traced := cfg.Trace && i%2 == 1
		var ts *traceSet
		if traced {
			ts = o.trace
		}
		var budget time.Duration
		if i >= minRounds {
			budget = cfg.Duration - measured
		}
		st, err := b.round(i, ts, budget)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		o.rounds = append(o.rounds, st)
		o.traced = append(o.traced, traced)
		o.attempted += st.ops
		measured += st.elapsed
	}
	if err := b.close(); err != nil {
		return nil, err
	}
	o.failed, o.mismatches = chk.result()
	o.peakRSSMB = peakRSSMB()
	return o, nil
}

// metric is one printed metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final machine-readable line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (o *outcome) result() result {
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.endToEnd()}
	if o.cfg.Trace {
		r.Metrics = o.perLayer()
	}
	return r
}

// untraced returns the rounds that ran without tracing.
func (o *outcome) untraced() []roundStat {
	var out []roundStat
	for i, st := range o.rounds {
		if !o.traced[i] {
			out = append(out, st)
		}
	}
	return out
}

// perRound applies f to every whole untraced round.
func (o *outcome) perRound(f func(roundStat) float64) []float64 {
	var out []float64
	for _, st := range o.untraced() {
		if !st.partial {
			out = append(out, f(st))
		}
	}
	return out
}

// latenciesMS is the latency sample the percentiles are taken over. Where
// every round repeats the same operations, it holds each operation's
// median over the run's rounds, so a percentile always falls between the
// same operations however host speed moved; otherwise it holds every
// operation's latency.
func (o *outcome) latenciesMS() []float64 {
	var out []float64
	byKey := map[string][]float64{}
	for _, st := range o.untraced() {
		for i, d := range st.lat {
			ms := float64(d) / 1e6
			if st.keys == nil {
				out = append(out, ms)
			} else {
				byKey[st.keys[i]] = append(byKey[st.keys[i]], ms)
			}
		}
	}
	for _, v := range byKey {
		out = append(out, median(v))
	}
	return out
}

func throughput(st roundStat) float64 { return float64(st.ops) / st.elapsed.Seconds() }

func mcyclesPerS(st roundStat) float64 {
	return float64(st.counts.Cycles) / 1e6 / st.elapsed.Seconds()
}

// rates returns operations and simulated Mcycles per host second. Where
// every round repeats the same operations, one pass over them takes the
// sum of each operation's median time over the run, so both rates rest on
// per-operation medians and a round cut short still counts. Otherwise
// they are medians over the run's whole rounds.
func (o *outcome) rates() (opsPerS, mcyclesPerSec float64) {
	rounds := o.untraced()
	if len(rounds) == 0 || rounds[0].keys == nil {
		return median(o.perRound(throughput)), median(o.perRound(mcyclesPerS))
	}
	times := map[string][]float64{}
	cycles := map[string]int64{}
	for _, st := range rounds {
		for i, k := range st.keys {
			times[k] = append(times[k], st.lat[i].Seconds())
			cycles[k] = st.cycles[i]
		}
	}
	var pass float64
	var cyc int64
	for k, v := range times {
		pass += median(v)
		cyc += cycles[k]
	}
	return float64(len(times)) / pass, float64(cyc) / 1e6 / pass
}

// endToEnd is the untraced run's metrics, each a median over the run.
func (o *outcome) endToEnd() map[string]metric {
	lat := o.latenciesMS()
	opsPerS, mcyc := o.rates()
	return map[string]metric{
		"setup_s":              {median(o.setup), "s"},
		"throughput_ops_per_s": {opsPerS, "1/s"},
		"latency_p50_ms":       {quantile(lat, 0.50), "ms"},
		"latency_p99_ms":       {quantile(lat, 0.99), "ms"},
		"sim_mcycles_per_s":    {mcyc, "Mcycles/s"},
		"peak_rss_mb":          {o.peakRSSMB, "MB"},
	}
}

// errorFrac is failed operations over attempted ones.
func (o *outcome) errorFrac() float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(o.failed) / float64(o.attempted)
}

// timedStat is a timing's spread, for the report line.
type timedStat struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	P99    float64 `json:"p99,omitempty"`
	// BeyondP99 counts samples above the p99 value.
	BeyondP99 int `json:"beyond_p99,omitempty"`
}

func spread(xs []float64, tail bool) timedStat {
	t := timedStat{N: len(xs), Q1: quantile(xs, 0.25), Median: quantile(xs, 0.5), Q3: quantile(xs, 0.75)}
	if tail {
		t.P99 = quantile(xs, 0.99)
		for _, x := range xs {
			if x > t.P99 {
				t.BeyondP99++
			}
		}
	}
	return t
}

// report is the human-readable line printed before the result: every
// end-to-end metric with its unit, error_frac, and each timing's
// quartiles and sample count.
func (o *outcome) report() map[string]any {
	r := map[string]any{
		"workload":   o.cfg.Workload,
		"seed":       o.cfg.Seed,
		"trace":      o.cfg.Trace,
		"rounds":     len(o.rounds),
		"error_frac": metric{o.errorFrac(), "fraction"},
	}
	if o.cfg.Trace {
		r["per_layer"] = o.perLayer()
		return r
	}
	r["metrics"] = o.endToEnd()
	r["spread"] = map[string]timedStat{
		"setup_s":              spread(o.setup, false),
		"throughput_ops_per_s": spread(o.perRound(throughput), false),
		"latency_ms":           spread(o.latenciesMS(), true),
		"sim_mcycles_per_s":    spread(o.perRound(mcyclesPerS), false),
	}
	return r
}

// layerSpans maps per-layer time metrics to the spans they sum.
var layerSpans = []struct{ metric, span string }{
	{"lang.ms", "lang"},
	{"opt.ms", "opt"},
	{"profile.ms", "profile"},
	{"speculate.ms", "speculate"},
	{"sched.ms", "sched"},
	{"exp.ms", "exp"},
	{"core.decode_ms", "core.decode"},
	{"core.run_ms", "core.run"},
	{"serve.request_ms", "serve.request"},
	{"serve.client_codec_ms", "serve.client_codec"},
}

// perLayer is the traced run's per-layer metrics: self times per
// operation of the traced rounds, and counts per round of every whole
// round.
func (o *outcome) perLayer() map[string]metric {
	st := computeSelfTimes(o.trace)
	isOp := func(root string) bool { return root != "setup" }
	msPer := func(ns int64, n int) float64 { return ratio(float64(ns)/1e6, float64(n)) }
	m := map[string]metric{}
	for _, l := range layerSpans {
		m[l.metric] = metric{msPer(st.layer(l.span, isOp)), "ms"}
	}
	for _, c := range latticeConfigNames {
		m["core.run_ms."+c] = metric{msPer(st.layer("core.run", func(root string) bool { return root == "cell."+c })), "ms"}
	}
	m["interp.ms"] = metric{msPer(st.layer("interp", func(root string) bool { return root == "setup" })), "ms"}

	var all, traced simCounts
	var tracedTime, plainTime time.Duration
	var tracedOps, plainOps int
	extra := map[string]float64{}
	whole := 0
	for i, r := range o.rounds {
		// A round cut short ran only some operations; leaving it out
		// keeps the per-round counts exact from run to run.
		if !r.partial {
			whole++
			all.add(r.counts)
			for k, v := range r.extra {
				extra[k] += v
			}
		}
		if o.traced[i] {
			traced.add(r.counts)
			tracedTime += r.elapsed
			tracedOps += r.ops
		} else if i > 0 {
			plainTime += r.elapsed
			plainOps += r.ops
		}
	}
	runNS, _ := st.layer("core.run", isOp)
	n := float64(whole)
	count := func(v int64) float64 { return float64(v) / n }
	frac := func(a, b int64) metric { return metric{ratio(float64(a), float64(b)), "fraction"} }
	computed, coalesced := extra["serve.compile.computed"], extra["serve.compile.coalesced"]

	m["core.ns_per_sim_cycle"] = metric{ratio(float64(runNS), float64(traced.Cycles)), "ns"}
	m["core.allocs_per_run"] = metric{ratio(extra["core.allocs"], extra["core.runs"]), "count"}
	m["core.sim_cycles"] = metric{count(all.Cycles), "cycles"}
	m["core.stall.sync"] = metric{count(all.StallSync), "cycles"}
	m["core.stall.ccb"] = metric{count(all.StallCCB), "cycles"}
	m["core.stall.recovery"] = metric{count(all.StallRecovery), "cycles"}
	m["core.stall.redirect"] = metric{count(all.StallRedirect), "cycles"}
	m["core.stall.ifetch"] = metric{count(all.StallIFetch), "cycles"}
	m["predict.value_accuracy"] = frac(all.Predictions-all.Mispredicts, all.Predictions)
	m["predict.suppressed_frac"] = frac(all.Suppressed, all.Predictions+all.Suppressed)
	m["predict.branch_mispredict_rate"] = frac(all.BranchMispredicts, all.BranchPredicts)
	m["core.cce_useful_frac"] = frac(all.CCEExecuted, all.CCEExecuted+all.CCEFlushed)
	m["mem.dmiss_rate"] = frac(all.DMisses, all.DHits+all.DMisses)
	m["mem.prefetch_useful_frac"] = frac(all.PrefUseful, all.PrefIssued)
	m["profile.interp_steps"] = metric{extra["profile.interp_steps"] / n, "count"}
	m["cache.hit_frac"] = metric{ratio(coalesced, computed+coalesced), "fraction"}
	m["serve.compile.computed"] = metric{computed / n, "count"}
	m["serve.compile.coalesced"] = metric{coalesced / n, "count"}
	m["trace.overhead_frac"] = metric{ratio(
		ratio(tracedTime.Seconds(), float64(tracedOps)), ratio(plainTime.Seconds(), float64(plainOps))) - 1, "fraction"}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics around
// q·(n−1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is the process's resident-set high-water mark (Linux
// VmHWM), falling back to the Go runtime's total from the OS elsewhere.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
