package main

// sim-lattice: the 8 stock kernels on the 4-wide machine × 5 timing
// configurations, compiled once in setup and run back to back through one
// pooled core.Batch by a single caller. core, predict and the memory model
// do almost all the timed work; compilation does none. Each cell is one
// operation. Modelled caches and predictor tables start empty for every
// cell (Simulator.Run resets them), so a cell's simulated counters do not
// depend on the order cells run in.

import (
	"fmt"
	"math/rand"
	"runtime/metrics"
	"time"

	"vliwvp/internal/core"
	"vliwvp/internal/exp"
	"vliwvp/internal/exp/cache"
	"vliwvp/internal/machine"
	"vliwvp/internal/predict"
	"vliwvp/internal/workload"
)

// timingConfig is one timing axis setting of the lattice.
type timingConfig struct {
	name string
	mem  *machine.MemConfig
	pred *predict.Config
	ctrl machine.ControlConfig
}

var latticeConfigNames = []string{"flat", "l2-pf", "tage", "vtage", "all"}

// latticeConfigs returns flat, l2-pf, tage, vtage:conf=2 and all three
// together, in latticeConfigNames order.
func latticeConfigs() ([]timingConfig, error) {
	vtage, err := predict.Parse("vtage:conf=2")
	if err != nil {
		return nil, err
	}
	tage, err := predict.ParseBranch("tage")
	if err != nil {
		return nil, err
	}
	ctrl := machine.DefaultControl()
	ctrl.Branch = tage
	l2pf := machine.MemByName("l2-pf")
	if l2pf == nil {
		return nil, fmt.Errorf("no stock memory hierarchy l2-pf")
	}
	return []timingConfig{
		{name: "flat"},
		{name: "l2-pf", mem: l2pf},
		{name: "tage", ctrl: ctrl},
		{name: "vtage", pred: vtage},
		{name: "all", mem: l2pf, pred: vtage, ctrl: ctrl},
	}, nil
}

// runner is the experiment runner that compiles for c (4-wide machine).
func (c timingConfig) runner(cc *cache.Cache) *exp.Runner {
	r := exp.NewRunner(machine.W4)
	r.Cache = cc
	r.Jobs = 1
	r.Mem = c.mem
	if c.pred != nil {
		r.Cfg.Predictor = c.pred
	}
	if c.ctrl != (machine.ControlConfig{}) {
		r.Cfg.Control = c.ctrl
	}
	return r
}

type latticeCell struct {
	kernel string
	config string
	root   string // the cell's root span name, cell.<config>
	item   core.BatchItem
}

type lattice struct {
	seed  int64
	chk   *checker
	cells []latticeCell
	batch *core.Batch
	// allocs reads the runtime's cumulative heap-object allocation count
	// around each traced run.
	allocs []metrics.Sample
}

func (l *lattice) setup(seed int64, chk *checker, ts *traceSet) error {
	sc := ts.root(ts.tracer(), "setup")
	defer sc.done()
	l.seed, l.chk = seed, chk
	cfgs, err := latticeConfigs()
	if err != nil {
		return err
	}
	cc := cache.New()
	for _, b := range workload.All() {
		if err := chk.addRef(b, sc); err != nil {
			return err
		}
		for _, c := range cfgs {
			r := c.runner(cc)
			cs := sc.span("exp")
			r.PassSink = cs.passSink()
			compiled, err := r.Compiled(b)
			cs.done()
			if err != nil {
				return fmt.Errorf("compile %s/%s: %w", b.Name, c.name, err)
			}
			l.cells = append(l.cells, latticeCell{kernel: b.Name, config: c.name, root: "cell." + c.name, item: core.BatchItem{
				Name: b.Name + "/" + c.name, Img: compiled.Img, Schemes: compiled.Schemes,
				Mem: c.mem, Pred: c.pred, Ctrl: c.ctrl,
			}})
		}
	}
	l.batch = core.NewBatch()
	l.allocs = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	return nil
}

// round is one pass over every cell, in a seed-derived order.
func (l *lattice) round(i int, ts *traceSet, budget time.Duration) (roundStat, error) {
	rng := rand.New(rand.NewSource(l.seed*7919 + int64(i)))
	order := rng.Perm(len(l.cells))
	tr := ts.tracer()
	st := roundStat{lat: make([]time.Duration, 0, len(l.cells)), extra: map[string]float64{}}
	for _, ci := range order {
		if budget > 0 && st.elapsed >= budget {
			st.partial = true
			break
		}
		c := &l.cells[ci]
		t0 := time.Now()
		sc := ts.root(tr, c.root)
		sim := l.batch.SimFor(&c.item)
		var before uint64
		if tr != nil {
			metrics.Read(l.allocs)
			before = l.allocs[0].Value.Uint64()
		}
		rs := sc.span("core.run")
		v, err := sim.Run("main")
		rs.done()
		if tr != nil {
			metrics.Read(l.allocs)
			st.extra["core.allocs"] += float64(l.allocs[0].Value.Uint64() - before)
			st.extra["core.runs"]++
		}
		sc.done()
		d := time.Since(t0)
		st.elapsed += d
		st.lat = append(st.lat, d)
		st.keys = append(st.keys, c.item.Name)
		st.ops++
		counts := countsOf(sim)
		st.counts.add(counts)
		st.cycles = append(st.cycles, counts.Cycles)
		l.chk.check(c.kernel, c.config, v, sim.Output, counts, err)
	}
	return st, nil
}

func (l *lattice) close() error {
	if l.batch == nil {
		return nil
	}
	return l.batch.CheckQuiescent()
}
