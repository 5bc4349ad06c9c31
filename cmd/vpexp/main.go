// Command vpexp regenerates the paper's evaluation artifacts (Tables 2-4,
// Figure 8, the baseline-recovery comparison, and the end-to-end dynamic
// speedup) from the pipeline in this repository. See DESIGN.md's
// per-experiment index.
//
// Usage:
//
//	vpexp -exp table2|table3|table4|fig8|baseline|speedup|all [-mach 4-wide] [-j N]
//	vpexp -exp threshold|predictors|ccb|regions|hyperblocks|disambig|memory|combined|ablations
//	vpexp -oracle [-mach 4-wide] [-j N]
//	vpexp -sim compress [-cache l2-pf] [-predictor vtage:conf=2] [-branch tage] [-trace t.jsonl] [-stats-json m.json]
//	vpexp -bench-json BENCH.json [-bench-count 5]
//	vpexp -conform [-progen-seed 1] [-progen-count 200] [-j N]
//	vpexp -progen-seed 17 -progen-count 2
//	vpexp -batch 64 [-progen-seed 1] [-mach 4-wide] [-j N]
//
// -j bounds the worker pool the experiment cells fan across; any value
// renders byte-identical tables. -oracle runs the conformance battery
// (internal/conform) over every stock kernel on the kernel lattice of the
// -mach machine — the simulator against the sequential interpreter, among
// the other invariants — printing one line per kernel and exiting nonzero
// on any violation.
//
// -conform runs the metamorphic conformance suite (internal/conform):
// -progen-count generated programs starting at -progen-seed, each checked
// across the configuration lattice, exiting nonzero with a minimized,
// seed-reproducible program for any violated invariant. Without -conform,
// -progen-count alone prints the generated VL programs, which is how a
// reported counterexample seed is inspected.
//
// -batch compiles a seed-reproducible progen corpus once (decoded images
// come from the pass cache) and executes every kernel through one batched
// simulator, reusing decode products, predictor tables, and pooled frames
// across the corpus; each kernel's result is validated against the
// sequential interpreter.
//
// -sim runs one benchmark on the speculative dual-engine machine and is
// the observability entry point: -trace streams the typed event log
// (-trace-format text, jsonl, or chrome — the last loads into
// chrome://tracing / Perfetto), and -stats-json writes the metrics
// snapshot (stall causes, CCB occupancy histogram, prediction and
// compensation counters). -bench-json runs the pinned benchmark grid and
// writes the perf record cmd/benchdiff gates CI with. -cpuprofile and
// -memprofile capture pprof profiles of whichever mode runs.
//
// -cache binds a stock memory hierarchy (internal/machine: flat, l1,
// l1-pf, l2, l2-pf) to every simulation this invocation runs. The
// hierarchy is timing-only — architectural results never change, cycle
// counts do. `-exp memory` sweeps all stock hierarchies in one table
// (the generalised Fig. 10 axis).
//
// -predictor binds a value-predictor configuration (internal/predict:
// profiled, auto, last, stride, fcm, hybrid, lnv, vtage, each accepting
// name:key=val options such as vtage:bits=12,conf=2) to every compilation
// and simulation this invocation runs; conf=N enables the runtime
// confidence gate. `-exp predictors` sweeps the whole zoo in one grid
// alongside the static profile-rescoping ablation.
//
// -branch binds a dynamic branch-direction predictor (internal/predict:
// taken, nottaken, bimodal, tage, with name:key=val options such as
// tage:hist=32,tables=4) to every simulation this invocation runs; taken
// branches then cost a fetch-redirect bubble and mispredicted directions
// pay the flush penalty and squash in-flight LdPred/CCB state (DESIGN.md
// §15). `-exp combined` crosses the branch-predictor axis against the
// value-predictor axis in one table — the unified control+value
// speculation ablation (E16).
//
// Three flags expose the compile pipeline itself: -passes prints the pass
// plans the current configuration composes (with each pass's cache-key
// fingerprint) and exits; -validate-ir checks the IR between every pass
// (structural passes are always checked; this extends the check to all of
// them, as `go test` does); -dump-ir DIR writes the IR after every pass to
// DIR, one file per (plan, pass), bypassing the pass cache so each dump
// reflects a full recompute.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"vliwvp/internal/conform"
	"vliwvp/internal/exp"
	"vliwvp/internal/ir"
	"vliwvp/internal/machine"
	"vliwvp/internal/obs"
	"vliwvp/internal/pipeline"
	"vliwvp/internal/predict"
	"vliwvp/internal/progen"
	"vliwvp/internal/workload"
)

func main() {
	which := flag.String("exp", "all", "experiment: table2, table3, table4, fig8, baseline, speedup, all, "+
		"or an ablation: threshold, predictors, ccb, regions, disambig, memory, combined, ablations")
	mach := flag.String("mach", "4-wide", "machine description for single-width experiments")
	cacheName := flag.String("cache", "", "memory hierarchy for simulations: flat, l1, l1-pf, l2, l2-pf (default flat)")
	predSpec := flag.String("predictor", "", "value-predictor config for simulations: profiled, auto, last, stride, fcm, hybrid, lnv, vtage, with name:key=val options (e.g. vtage:bits=12,conf=2)")
	branchSpec := flag.String("branch", "", "branch-predictor config for simulations: taken, nottaken, bimodal, tage, with name:key=val options (e.g. tage:hist=32,tables=4)")
	jobs := flag.Int("j", runtime.NumCPU(), "max concurrent experiment cells (tables are identical at any value)")
	oracleMode := flag.Bool("oracle", false, "differentially test the simulator against the interpreter and exit")
	simBench := flag.String("sim", "", "run one benchmark on the speculative dual-engine machine (observability mode)")
	traceFile := flag.String("trace", "", "with -sim: write the event trace to this file ('-' for stdout)")
	traceFormat := flag.String("trace-format", "text", "trace encoding: text, jsonl, or chrome")
	statsJSON := flag.String("stats-json", "", "with -sim: write the metrics snapshot (counters + histograms) as JSON")
	benchJSON := flag.String("bench-json", "", "run the pinned benchmark grid and write the perf record here")
	benchCount := flag.Int("bench-count", 5, "with -bench-json: repetitions per entry (min is kept)")
	validateIR := flag.Bool("validate-ir", false, "validate the IR after every compile pass (always on under go test)")
	dumpIR := flag.String("dump-ir", "", "write the IR after every compile pass to this directory (disables the pass cache)")
	listPasses := flag.Bool("passes", false, "print the pass plans the current configuration composes and exit")
	conformMode := flag.Bool("conform", false, "run the metamorphic conformance suite over generated programs and exit")
	batchCount := flag.Int("batch", 0, "run N generated kernels (from -progen-seed) through one batched simulator and exit")
	progenSeed := flag.Int64("progen-seed", 1, "first program-generator seed for -conform (or for printing programs)")
	progenCount := flag.Int("progen-count", 0, "number of generated programs; default 200 under -conform")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	d := machine.ByName(*mach)
	if d == nil {
		fmt.Fprintf(os.Stderr, "vpexp: unknown machine %q\n", *mach)
		os.Exit(2)
	}
	memCfg := machine.MemByName(*cacheName)
	if memCfg == nil {
		fmt.Fprintf(os.Stderr, "vpexp: unknown cache %q (stock: flat, l1, l1-pf, l2, l2-pf)\n", *cacheName)
		os.Exit(2)
	}
	var predCfg *predict.Config
	if *predSpec != "" {
		var err error
		if predCfg, err = predict.Parse(*predSpec); err != nil {
			fmt.Fprintf(os.Stderr, "vpexp: bad -predictor (stock: %s): %v\n",
				strings.Join(predict.StockNames(), ", "), err)
			os.Exit(2)
		}
	}
	var branchCfg *predict.BranchConfig
	if *branchSpec != "" {
		var err error
		if branchCfg, err = predict.ParseBranch(*branchSpec); err != nil {
			fmt.Fprintf(os.Stderr, "vpexp: bad -branch (stock: %s): %v\n",
				strings.Join(predict.StockBranchNames(), ", "), err)
			os.Exit(2)
		}
	}

	// tune applies the pipeline-debugging flags, the memory hierarchy, and
	// the predictor config to every runner this invocation constructs.
	tune := func(r *exp.Runner) {
		r.Mem = memCfg
		r.Cfg.Predictor = predCfg
		if branchCfg != nil {
			r.Cfg.Control = machine.DefaultControl()
			r.Cfg.Control.Branch = branchCfg
		}
		r.ValidateIR = *validateIR
		if *dumpIR != "" {
			dump, err := irDumper(*dumpIR)
			if err != nil {
				fatal(err)
			}
			r.DumpIR = dump
		}
	}

	if *listPasses {
		printPlans(exp.NewRunner(d))
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	switch {
	case *conformMode:
		n := *progenCount
		if n <= 0 {
			n = 200
		}
		runConform(*progenSeed, n, *jobs)
		return
	case *batchCount > 0:
		if err := runBatch(d, tune, *progenSeed, *batchCount, *jobs); err != nil {
			fatal(err)
		}
		return
	case *progenCount > 0:
		for i := 0; i < *progenCount; i++ {
			fmt.Print(progen.Render(progen.Generate(*progenSeed+int64(i), progen.Options{})))
		}
		return
	case *oracleMode:
		runOracle(d, *jobs)
		return
	case *simBench != "":
		if err := runSim(d, tune, *simBench, *traceFile, *traceFormat, *statsJSON); err != nil {
			fatal(err)
		}
		return
	case *benchJSON != "":
		if err := runBench(d, *benchJSON, *benchCount); err != nil {
			fatal(err)
		}
		return
	}

	r := exp.NewRunner(d)
	r.Jobs = *jobs
	tune(r)

	matched := false
	run := func(name string, f func() error) {
		if *which != "all" && *which != name {
			return
		}
		matched = true
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "vpexp: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	runAblation := func(name string, f func(*machine.Desc, int) (fmt.Stringer, error)) {
		if *which != "ablations" && *which != name {
			return
		}
		matched = true
		t, err := f(d, *jobs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vpexp: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(t)
	}

	run("table2", func() error {
		t, _, err := exp.RenderTable2(r)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	run("table3", func() error {
		t, _, err := exp.RenderTable3(r)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	run("fig8", func() error {
		t, _, err := exp.RenderFigure8(r)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	run("table4", func() error {
		t, _, err := exp.RenderTable4(*jobs)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	run("baseline", func() error {
		t, _, err := exp.RenderBaseline(r)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	run("speedup", func() error {
		t, _, err := exp.RenderSpeedup(r)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})

	runAblation("threshold", exp2(exp.RenderThresholdSweep))
	// "predictors" renders both halves of the zoo comparison: the static
	// profile-rescoping ablation and the dynamic per-scheme grid.
	runAblation("predictors", func(d *machine.Desc, jobs int) (fmt.Stringer, error) {
		static, err := exp.RenderPredictorAblation(d, jobs)
		if err != nil {
			return nil, err
		}
		zoo, err := exp.RenderPredictorZoo(d, jobs)
		if err != nil {
			return nil, err
		}
		return stringers{static, zoo}, nil
	})
	runAblation("ccb", exp2(exp.RenderCCBSweep))
	runAblation("regions", exp2(exp.RenderRegionAblation))
	runAblation("hyperblocks", exp2(exp.RenderHyperblockMatrix))
	runAblation("disambig", exp2(exp.RenderDisambiguationAblation))
	runAblation("memory", exp2(exp.RenderMemLatAblation))
	runAblation("combined", exp2(exp.RenderCombined))

	if !matched {
		fmt.Fprintf(os.Stderr, "vpexp: unknown experiment %q\n", *which)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "vpexp: %v\n", err)
	os.Exit(1)
}

// exp2 adapts a concrete table renderer to the runAblation signature.
func exp2[T fmt.Stringer](f func(*machine.Desc, int) (T, error)) func(*machine.Desc, int) (fmt.Stringer, error) {
	return func(d *machine.Desc, jobs int) (fmt.Stringer, error) { return f(d, jobs) }
}

// stringers renders several tables as one blank-line-separated block, for
// experiments that print more than one table.
type stringers []fmt.Stringer

func (s stringers) String() string {
	parts := make([]string, len(s))
	for i, t := range s {
		parts[i] = t.String()
	}
	return strings.Join(parts, "\n\n")
}

// printPlans lists every pass plan the runner's configuration composes, in
// execution order, with each pass's cache-key fingerprint where it has one.
func printPlans(r *exp.Runner) {
	for _, pl := range r.Plans() {
		fmt.Printf("%s:\n", pl.Name)
		for i, p := range pl.Passes {
			if f, ok := p.(interface{ Fingerprint() string }); ok {
				fmt.Printf("  %2d %-10s %s\n", i, p.Name(), f.Fingerprint())
			} else {
				fmt.Printf("  %2d %s\n", i, p.Name())
			}
		}
	}
}

// irDumper builds a post-pass IR dump hook writing one file per (plan,
// pass) into dir. Attaching a dump hook bypasses the pass cache, so every
// dump reflects a full recompute of its plan.
func irDumper(dir string) (pipeline.DumpFunc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return func(plan, pass string, index int, prog *ir.Program) {
		if prog == nil {
			return
		}
		name := fmt.Sprintf("%s-%02d-%s.ir", plan, index, pass)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(prog.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "vpexp: dump-ir: %v\n", err)
		}
	}, nil
}

// openSink builds the event sink for -trace/-trace-format. The returned
// close func flushes and finalizes the underlying file.
func openSink(path, format string) (obs.EventSink, func() error, error) {
	var w *os.File
	var err error
	closeFile := func() error { return nil }
	if path == "-" {
		w = os.Stdout
	} else {
		w, err = os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		closeFile = w.Close
	}
	switch format {
	case "text":
		s := obs.NewTextSink(w)
		return s, func() error {
			if err := s.Close(); err != nil {
				closeFile()
				return err
			}
			return closeFile()
		}, nil
	case "jsonl":
		s := obs.NewJSONLSink(w)
		return s, func() error {
			if err := s.Close(); err != nil {
				closeFile()
				return err
			}
			return closeFile()
		}, nil
	case "chrome":
		s := obs.NewChromeSink(w)
		return s, func() error {
			if err := s.Close(); err != nil {
				closeFile()
				return err
			}
			return closeFile()
		}, nil
	default:
		closeFile()
		return nil, nil, fmt.Errorf("unknown trace format %q (want text, jsonl, or chrome)", format)
	}
}

// runSim executes one benchmark on the speculative dual-engine machine
// with the requested observability attachments.
func runSim(d *machine.Desc, tune func(*exp.Runner), bench, traceFile, traceFormat, statsJSON string) error {
	w := workload.ByName(bench)
	if w == nil {
		return fmt.Errorf("unknown benchmark %q (have compress, ijpeg, li, m88ksim, vortex, hydro2d, swim, tomcatv)", bench)
	}
	r := exp.NewRunner(d)
	tune(r)
	sim, err := r.SpecSim(w)
	if err != nil {
		return err
	}
	if traceFile != "" {
		sink, closeSink, err := openSink(traceFile, traceFormat)
		if err != nil {
			return err
		}
		sim.Sink = sink
		defer func() {
			if err := closeSink(); err != nil {
				fmt.Fprintf(os.Stderr, "vpexp: closing trace: %v\n", err)
			}
		}()
	}
	v, err := sim.Run("main")
	if err != nil {
		return err
	}
	fmt.Printf("sim %s on %s: result=%d cycles=%d instrs=%d preds=%d mispred=%d cce=%d flush=%d\n",
		bench, d.Name, v, sim.Cycles, sim.Instrs,
		sim.Predictions, sim.Mispredicts, sim.CCEExecuted, sim.CCEFlushed)
	if sim.Control.Dynamic() {
		fmt.Printf("branch %s: predicts=%d mispred=%d flushed=%d stall-redirect=%d\n",
			sim.Control.Branch.Key(), sim.BranchPredicts, sim.BranchMispredicts,
			sim.BranchFlushed, sim.StallRedirect)
	}
	if !sim.MemCfg.Flat() {
		fmt.Printf("mem %s: dhits=%d dmisses=%d imisses=%d stall-ifetch=%d pf-issued=%d pf-useful=%d\n",
			sim.MemCfg.Name, sim.DHits, sim.DMisses, sim.IMisses,
			sim.StallIFetch, sim.PrefIssued, sim.PrefUseful)
	}
	if statsJSON != "" {
		f, err := os.Create(statsJSON)
		if err != nil {
			return err
		}
		snap := sim.Metrics()
		if err := snap.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// runBatch compiles a generated corpus and executes it through one batched
// simulator, printing the per-kernel table.
func runBatch(d *machine.Desc, tune func(*exp.Runner), seed int64, n, jobs int) error {
	r := exp.NewRunner(d)
	r.Jobs = jobs
	tune(r)
	t, _, err := exp.RenderBatch(r, seed, n)
	if err != nil {
		return err
	}
	fmt.Println(t)
	return nil
}

// runBench measures the pinned benchmark grid and writes the perf record.
func runBench(d *machine.Desc, path string, count int) error {
	rec, err := exp.RunBenchGrid(d, count, os.Stderr)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := rec.WriteJSON(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runConform checks n generated programs (seeds seed..seed+n-1) against
// the metamorphic invariants across the configuration lattice and exits
// nonzero on any violation, printing each minimized counterexample.
func runConform(seed int64, n, jobs int) {
	fails, stats, err := conform.Run(seed, n, conform.Options{Jobs: jobs, Origin: "vpexp -conform"})
	if err != nil {
		fmt.Fprintf(os.Stderr, "vpexp: conform: %v\n", err)
		os.Exit(1)
	}
	for _, f := range fails {
		fmt.Print(f.Report())
	}
	fmt.Printf("conform: %d programs x %d lattice cells, %d predictions (%d mispredicted), %d CCE re-executions, %d sweeps\n",
		stats.Programs, len(conform.DefaultLattice()), stats.Predictions,
		stats.Mispredicts, stats.CCEExecuted, stats.MonotoneSweeps)
	if len(fails) > 0 {
		fmt.Printf("conform: %d of %d seeds violated an invariant\n", len(fails), n)
		os.Exit(1)
	}
}

// runOracle checks every stock kernel on the machine's kernel lattice and
// reports one line per kernel. Any violation (or harness failure) exits
// nonzero.
func runOracle(d *machine.Desc, jobs int) {
	benches := workload.All()
	lattice := conform.KernelLattice(d)
	fails, _, err := conform.CheckBenchmarks(benches, conform.Options{Jobs: jobs, Lattice: lattice, Origin: "vpexp -oracle -mach " + d.Name})
	if err != nil {
		fmt.Fprintf(os.Stderr, "vpexp: oracle: %v\n", err)
		os.Exit(1)
	}
	bad := 0
	for i, b := range benches {
		if fails[i] == nil {
			fmt.Printf("ok   %s\n", b.Name)
			continue
		}
		bad++
		fmt.Printf("FAIL %s\n%s", b.Name, fails[i].Report())
	}
	if bad > 0 {
		fmt.Printf("oracle: %d of %d kernels failed\n", bad, len(benches))
		os.Exit(1)
	}
	fmt.Printf("oracle: %d kernels x %d cells, no violation\n", len(benches), len(lattice))
}
