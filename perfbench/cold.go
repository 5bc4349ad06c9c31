package main

// cold-compile: seed-derived progen kernels plus the 8 stock kernels, each
// compiled from an empty private exp/cache through the full front end and
// speculation plans (lower → opt → profile → speculate → schedule →
// decode) and then simulated once on a fresh simulator, by a single
// caller. lang, opt, profile, speculate, sched and decode do most of the
// work; simulating the small kernels does little. It is the write side of
// the compile cache (every operation fills an empty one); serve-mix is the
// read side.

import (
	"math/rand"
	"time"

	"vliwvp/internal/core"
	"vliwvp/internal/exp"
	"vliwvp/internal/exp/cache"
	"vliwvp/internal/machine"
	"vliwvp/internal/workload"
)

// coldProgen is how many progen kernels one cold-compile round compiles
// beside the stock kernels.
const coldProgen = 300

type coldCompile struct {
	seed    int64
	chk     *checker
	kernels []*workload.Benchmark
}

// progenBase maps a workload seed to the first progen seed of its corpus,
// so distinct workload seeds draw disjoint kernels.
func progenBase(seed int64, salt int64) int64 { return seed*1_000_003 + salt*100_003 }

func (c *coldCompile) setup(seed int64, chk *checker, ts *traceSet) error {
	sc := ts.root(ts.tracer(), "setup")
	defer sc.done()
	c.seed, c.chk = seed, chk
	c.kernels = append(workload.Generated(progenBase(seed, 1), coldProgen), workload.All()...)
	for _, b := range c.kernels {
		if err := chk.addRef(b, sc); err != nil {
			return err
		}
	}
	return nil
}

// round compiles and runs every kernel once, in a seed-derived order.
func (c *coldCompile) round(i int, ts *traceSet, budget time.Duration) (roundStat, error) {
	rng := rand.New(rand.NewSource(c.seed*7919 + int64(i)))
	order := rng.Perm(len(c.kernels))
	tr := ts.tracer()
	st := roundStat{lat: make([]time.Duration, 0, len(c.kernels)), extra: map[string]float64{}}
	for _, ki := range order {
		if budget > 0 && st.elapsed >= budget {
			st.partial = true
			break
		}
		b := c.kernels[ki]
		t0 := time.Now()
		sc := ts.root(tr, "compile")
		r := exp.NewRunner(machine.W4)
		r.Cache = cache.New()
		r.Jobs = 1
		cs := sc.span("exp")
		r.PassSink = cs.passSink()
		compiled, err := r.Compiled(b)
		cs.done()
		var v uint64
		var sim *core.Simulator
		if err == nil {
			sim = core.NewSimulatorFromImage(compiled.Img, compiled.Schemes)
			rs := sc.span("core.run")
			v, err = sim.Run("main")
			rs.done()
		}
		sc.done()
		d := time.Since(t0)
		st.elapsed += d
		st.lat = append(st.lat, d)
		st.keys = append(st.keys, b.Name)
		st.ops++
		if sim == nil {
			st.cycles = append(st.cycles, 0)
			c.chk.fail("%s: compile: %v", b.Name, err)
			continue
		}
		counts := countsOf(sim)
		st.counts.add(counts)
		st.cycles = append(st.cycles, counts.Cycles)
		if r := c.chk.refs[b.Name]; r != nil {
			st.extra["profile.interp_steps"] += float64(r.Steps)
		}
		c.chk.check(b.Name, "cold", v, sim.Output, counts, err)
	}
	return st, nil
}

func (c *coldCompile) close() error { return nil }
