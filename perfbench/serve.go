package main

// serve-mix: the vpexpd daemon in process — serve.New(...).Handler() with
// 2 workers — driven by 2 closed-loop client goroutines, each sending its
// next request only after the previous reply. A round is a list of
// requests: 95% name a warm set of small inline and progen kernels that
// the compile cache already holds, and 5% name fresh progen kernels,
// drawn from a seed-derived pool, that the server has never compiled. The
// serve layer (JSON, admission, queue, coalescing, encode) dominates warm
// requests; it is the compile cache's read side beside cold-compile's
// writes. Every round starts on a new server whose cache holds only the
// warm set, so the cold kernels are cold again without an unbounded
// reference pool.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"vliwvp/internal/obs"
	"vliwvp/internal/progen"
	"vliwvp/internal/serve"
	"vliwvp/internal/workload"
)

const (
	serveClients       = 2
	serveWorkers       = 2
	serveRoundRequests = 2000
	serveColdPerRound  = 100 // 5% of a round
	// serveColdPool is how many fresh progen kernels a run draws each
	// round's cold requests from; a pool larger than a round keeps the
	// cold work's mean close to the same from seed to seed.
	serveColdPool   = 400
	serveWarmInline = 14
	serveWarmProgen = 2
	// serveWarmProgenSeed is the first progen seed of the warm set's
	// progen kernels. The warm set is the same for every workload seed, as
	// a daemon's hot set is, so the simulated cycles a round serves do not
	// swing with the seed; the seed still draws the cold kernels, the
	// inline kernels' constants and the request order.
	serveWarmProgenSeed = 7
)

// smallProgen shapes the warm set's progen kernels: one small array, a
// short main loop and no helper calls, so they simulate in a few thousand
// cycles.
var smallProgen = progen.Options{MaxFrags: 3, MaxArrays: 1, TripMin: 8, TripMax: 16, NoChase: true, NoCall: true}

// serveConfigs are the warm set's cell configurations: the sim-lattice
// timing axes in the daemon's request vocabulary.
var serveConfigs = []struct {
	name string
	cfg  serve.Config
}{
	{"flat", serve.Config{}},
	{"l2-pf", serve.Config{Cache: "l2-pf"}},
	{"tage", serve.Config{Branch: "tage"}},
	{"vtage", serve.Config{Predictor: "vtage:conf=2"}},
	{"all", serve.Config{Cache: "l2-pf", Branch: "tage", Predictor: "vtage:conf=2"}},
}

// serveProgram is one request the clients may send.
type serveProgram struct {
	kernel string // reference key
	cell   string // configuration name
	req    serve.Request
}

type serveMix struct {
	seed int64
	chk  *checker
	warm []serveProgram
	cold []serveProgram
	srv  *serve.Server
}

// warmSource is a tiny inline kernel — one short loop over a table and
// one output line, a few hundred simulated cycles — so a warm request's
// cost is mostly the serving spine.
func warmSource(seed int64, i int) string {
	return fmt.Sprintf(`
var tab[32]
func main() {
	var i = 0
	var s = %d
	while i < %d {
		tab[i] = (i * %d + s) & 255
		s = s + tab[i] + %d
		i = i + 1
	}
	print(s)
	return s
}
`, seed%1000+int64(i), 8+i, 2*i+3, i+1)
}

func (s *serveMix) setup(seed int64, chk *checker, ts *traceSet) error {
	sc := ts.root(ts.tracer(), "setup")
	defer sc.done()
	s.seed, s.chk = seed, chk
	var warm []*workload.Benchmark
	for i := 0; i < serveWarmInline; i++ {
		warm = append(warm, &workload.Benchmark{Name: fmt.Sprintf("inline%d", i), Source: warmSource(seed, i)})
	}
	for i := int64(0); i < serveWarmProgen; i++ {
		ps := serveWarmProgenSeed + i
		warm = append(warm, &workload.Benchmark{Name: fmt.Sprintf("small%d", ps),
			Source: progen.Render(progen.Generate(ps, smallProgen))})
	}
	for i, b := range warm {
		if err := chk.addRef(b, sc); err != nil {
			return err
		}
		c := serveConfigs[i%len(serveConfigs)]
		s.warm = append(s.warm, serveProgram{kernel: b.Name, cell: c.name, req: serve.Request{
			Source: b.Source, Machines: []string{"4-wide"}, Configs: []serve.Config{c.cfg}}})
	}
	for i := int64(0); i < serveColdPool; i++ {
		ps := progenBase(seed, 3) + i
		b := workload.Generated(ps, 1)[0]
		if err := chk.addRef(b, sc); err != nil {
			return err
		}
		s.cold = append(s.cold, serveProgram{kernel: b.Name, cell: "flat",
			req: serve.Request{Seed: &ps, Machines: []string{"4-wide"}}})
	}
	ss := sc.span("serve.start")
	defer ss.done()
	return s.start()
}

// start launches a fresh server and sends it every warm request once, so
// the warm set is in its compile cache before timing starts.
func (s *serveMix) start() error {
	if err := s.stop(); err != nil {
		return err
	}
	s.srv = serve.New(serve.Budgets{Workers: serveWorkers})
	h := s.srv.Handler()
	for _, p := range s.warm {
		if _, ok := s.send(h, p, scope{}); !ok {
			return fmt.Errorf("warm request for %s failed", p.kernel)
		}
	}
	return nil
}

// stop drains the server and checks its pooled simulators were left clean.
func (s *serveMix) stop() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err == nil {
		err = s.srv.CheckQuiescent()
	}
	s.srv = nil
	if err != nil {
		return fmt.Errorf("serve shutdown: %w", err)
	}
	return nil
}

// send issues one request as a client would — encode, POST, decode — and
// checks the reply against the reference. It returns the reply's
// simulated counters and whether it passed.
func (s *serveMix) send(h http.Handler, p serveProgram, sc scope) (simCounts, bool) {
	es := sc.span("serve.client_codec")
	body, err := json.Marshal(&p.req)
	es.done()
	if err != nil {
		s.chk.fail("%s: encode: %v", p.kernel, err)
		return simCounts{}, false
	}
	rec := httptest.NewRecorder()
	hs := sc.span("serve.request")
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	hs.done()
	ds := sc.span("serve.client_codec")
	var resp serve.RunResponse
	err = json.Unmarshal(rec.Body.Bytes(), &resp)
	ds.done()
	switch {
	case rec.Code != http.StatusOK:
		s.chk.fail("%s: HTTP %d: %s", p.kernel, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		return simCounts{}, false
	case err != nil:
		s.chk.fail("%s: decode: %v", p.kernel, err)
		return simCounts{}, false
	case len(resp.Cells) != 1:
		s.chk.fail("%s: %d cells, want 1", p.kernel, len(resp.Cells))
		return simCounts{}, false
	}
	c := &resp.Cells[0]
	var cellErr error
	if c.Error != "" {
		cellErr = fmt.Errorf("cell error %s: %s", c.ErrorCode, c.Error)
	}
	counts := simCounts{
		Cycles: c.Cycles, Instrs: c.Instrs, Ops: c.Ops, Predictions: c.Predictions,
		Mispredicts: c.Mispredicts, CCEExecuted: c.CCEExecuted, CCEFlushed: c.CCEFlushed,
	}
	return counts, s.chk.check(p.kernel, p.cell, c.Value, c.Output, counts, cellErr)
}

// compileCounters reads the daemon's compile-cache counters from /metrics.
func (s *serveMix) compileCounters() (computed, coalesced int64, err error) {
	rec := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		return 0, 0, fmt.Errorf("/metrics: %w", err)
	}
	return snap.Counters["serve.compile.computed"], snap.Counters["serve.compile.coalesced"], nil
}

// round sends one seed-shuffled request list from the closed-loop
// clients. Every list holds the same warm requests — the warm set in
// turn — and serveColdPerRound distinct cold ones, so rounds differ in
// order and in which cold kernels they compile, not in their mix. The
// clients run concurrently, so the round ignores budget.
func (s *serveMix) round(i int, ts *traceSet, _ time.Duration) (roundStat, error) {
	if i > 0 {
		if err := s.start(); err != nil {
			return roundStat{}, err
		}
	}
	rng := rand.New(rand.NewSource(s.seed*7919 + int64(i)))
	list := make([]serveProgram, 0, serveRoundRequests)
	for j := 0; j < serveRoundRequests-serveColdPerRound; j++ {
		list = append(list, s.warm[j%len(s.warm)])
	}
	for _, j := range rng.Perm(len(s.cold))[:serveColdPerRound] {
		list = append(list, s.cold[j])
	}
	rng.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
	computed0, coalesced0, err := s.compileCounters()
	if err != nil {
		return roundStat{}, err
	}

	h := s.srv.Handler()
	var next atomic.Int64
	lats := make([][]time.Duration, serveClients)
	counts := make([]simCounts, serveClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := ts.tracer()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(list) {
					return
				}
				start := time.Now()
				sc := ts.root(tr, "request")
				got, _ := s.send(h, list[j], sc)
				sc.done()
				lats[c] = append(lats[c], time.Since(start))
				counts[c].add(got)
			}
		}(c)
	}
	wg.Wait()
	st := roundStat{ops: len(list), elapsed: time.Since(t0)}
	for c := range lats {
		st.lat = append(st.lat, lats[c]...)
		st.counts.add(counts[c])
	}

	computed1, coalesced1, err := s.compileCounters()
	if err != nil {
		return roundStat{}, err
	}
	st.extra = map[string]float64{
		"serve.compile.computed":  float64(computed1 - computed0),
		"serve.compile.coalesced": float64(coalesced1 - coalesced0),
	}
	return st, nil
}

func (s *serveMix) close() error { return s.stop() }
