// Command perfbench is the repository's end-to-end benchmark. One process
// runs one named workload for a host-time budget, checks every simulated
// value, output line and cycle count against the sequential interpreter
// (internal/interp), and prints every metric by name with its unit. The
// last line of standard output is the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of an untraced
// run; with --trace 1 they are the per-layer metrics of a run that
// alternates untraced and traced rounds. A mismatch against the
// interpreter marks the result incorrect and exits 1. See README.md for
// the workloads, metric definitions and the per-layer → end-to-end table.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sim-lattice --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: sim-lattice, cold-compile or serve-mix")
		seed    = flag.Int64("seed", 1, "workload seed (inputs derive from it)")
		seconds = flag.Int("seconds", 10, "host seconds of timed rounds")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	)
	flag.Parse()
	if flag.NArg() > 0 || newBench(*name) == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: %v)\n", workloadNames)
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		Workload:  *name,
		Seed:      *seed,
		Duration:  time.Duration(*seconds) * time.Second,
		Trace:     *trace == 1,
		SetupReps: setupReps,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		os.Exit(1)
	}
	if cfg.Trace {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
		if err := writeSpans(path, res.trace); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	for _, msg := range res.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: MISMATCH %s\n", msg)
	}

	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(res.report()); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := out.Encode(res.result()); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if res.failed > 0 {
		os.Exit(1)
	}
}
