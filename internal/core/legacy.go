package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"

	"vliwvp/internal/interp"
	"vliwvp/internal/ir"
	"vliwvp/internal/machine"
	"vliwvp/internal/obs"
	"vliwvp/internal/predict"
	"vliwvp/internal/profile"
	"vliwvp/internal/sched"
)

// LegacySimulator is the original map-and-closure dual-engine stepper,
// retained verbatim as the differential oracle for the decode-once
// Simulator: the engine-diff suite asserts that both engines produce
// byte-identical cycle counts, obs event streams, and architectural
// state. It allocates in the hot loop (cycle-keyed closure map, per-block
// entryOf maps, per-issue op sorting) and exists only as a semantic
// reference — new call sites should use Simulator.
type LegacySimulator struct {
	Prog     *ir.Program
	Sched    *sched.ProgSched
	D        *machine.Desc
	Analyses map[string][]*BlockAnalysis
	// Schemes selects the predictor family per prediction site ID.
	Schemes map[int]profile.Scheme
	// NewPredictor, when set, overrides Schemes: it is invoked once per
	// prediction site per Run to build that site's predictor. The
	// conformance harness uses it to record a site's value stream with
	// predict.Recorder and then replay it through predict.Replay as a
	// perfect predictor. Returning nil falls back to the Schemes choice.
	NewPredictor func(predID int) predict.Predictor

	// CCBCapacity bounds in-flight speculative operations.
	CCBCapacity int
	// MaxCycles aborts runaway simulations.
	MaxCycles int64
	// PredCfg parameterizes the hardware value predictors and enables
	// runtime confidence gating (see Simulator.PredCfg — the legacy
	// oracle mirrors its semantics exactly so the engine-diff holds on
	// gated runs). Nil keeps the original behavior.
	PredCfg *predict.Config
	// MemReplay, when set, drives this oracle with the per-access load
	// latencies and per-fetch stall penalties a decoded-engine run
	// recorded (Simulator.MemRec): the memory engine-diff's proof that a
	// cache hierarchy changes latency numbers and nothing else. The
	// legacy stepper has no cache model of its own.
	MemReplay *MemTrace
	// Sink, when set, receives a typed obs.Event per engine event:
	// instruction issues, stalls, predictions, CCB captures, verification
	// verdicts, compensation flushes/re-executions, and register
	// write-backs. With no Sink attached, the issue/stall path performs
	// no event work at all. obs.TextFunc adapts a line callback.
	Sink obs.EventSink
	ev   obs.Event // emit's buffer

	// SerialRecovery switches the machine to the prior scheme the paper
	// compares against ([4]): no Compensation Code Engine — on a
	// misprediction the main engine branches to a statically scheduled
	// recovery block, executes it serially, and branches back. The
	// architectural effects are applied immediately; the cost is charged
	// as a front-end stall of 2*BranchPenalty + RecoveryLen[site].
	SerialRecovery bool
	// RecoveryLen gives each prediction site's recovery-block schedule
	// length (from the baseline model). Sites absent from the map charge
	// one cycle.
	RecoveryLen map[int]int
	// Control is the control-speculation model (see Simulator.Control —
	// the legacy oracle mirrors its semantics exactly so the engine-diff
	// holds across the branch lattice). The legacy engine rebuilds the
	// branch predictor per run rather than pooling it.
	Control machine.ControlConfig

	// FaultCCEWritebackXor, when nonzero, corrupts every compensation
	// re-execution result by XORing it with this mask before write-back.
	// It models a CCE write-back datapath bug and exists so the
	// conformance suite can prove it catches one (the architectural
	// results then diverge from the sequential interpreter whenever a
	// misprediction forces a re-execution). Never set outside tests.
	FaultCCEWritebackXor uint64
	// FaultConfidenceMisgate mirrors Simulator.FaultConfidenceMisgate: a
	// suppressed site whose prediction turns out wrong is treated as
	// verified correct. Never set outside tests.
	FaultConfidenceMisgate bool
	// FaultBranchFlushElide mirrors Simulator.FaultBranchFlushElide: a
	// mispredicted branch fails to flush in-flight LdPred sites. Never
	// set outside tests.
	FaultBranchFlushElide bool

	// Results.
	Cycles      int64
	Instrs      int64 // long instructions issued
	Ops         int64 // operations issued on the VLIW engine
	StallSync   int64 // cycles stalled on the Synchronization register
	StallScore  int64 // cycles stalled on the register scoreboard
	StallCCB    int64 // cycles stalled on a full CCB
	StallBar    int64 // cycles stalled on call/return barriers
	CCEExecuted int64
	CCEFlushed  int64
	Mispredicts int64
	Predictions int64
	// Suppressed counts LdPred issues gated off by the confidence
	// counters (not included in Predictions); SuppressedWrong counts the
	// suppressed issues whose prediction would have been wrong.
	Suppressed      int64
	SuppressedWrong int64
	// StallRecovery counts serial-mode cycles spent in recovery blocks
	// (including branch penalties).
	StallRecovery int64
	// Branch-predictor counters (see Simulator; zero while Control.Branch
	// is nil).
	BranchPredicts    int64
	BranchMispredicts int64
	BranchFlushed     int64
	BranchSquashed    int64
	StallRedirect     int64
	// StallIFetch counts cycles stalled on replayed instruction-fetch
	// penalties (MemReplay runs only).
	StallIFetch int64
	// MaxCCBOccupancy is the peak number of in-flight CCB entries — the
	// empirical sizing requirement for the buffer (compare the E10 sweep).
	MaxCCBOccupancy int
	Output          []string
	// ccbOcc tallies the live CCB occupancy observed at each speculative
	// capture into power-of-two buckets (<=1, <=2, <=4, ... and overflow);
	// Metrics exports it as the "ccb.occupancy" histogram.
	ccbOcc [ccbOccBuckets]int64

	// internal state
	loadCur       int   // next MemReplay.Loads entry
	fetchCur      int   // next MemReplay.Fetch entry
	stallUntil    int64 // serial-mode recovery stall horizon
	redirectUntil int64 // branch redirect/flush stall horizon
	seq           int64
	bp            *predict.BranchPredictor // rebuilt each run from Control.Branch
	// pending is the in-flight check list (mirrors Simulator.pending):
	// appended at CheckLd issue, head-swept as checks resolve, walked by
	// a branch mispredict's flush.
	pending     []legacyPending
	pendingHead int
	mem         *interp.Machine // reused for operation semantics + memory
	preds       map[int]predict.Predictor
	conf        map[int]predict.ConfCounter
	vtage       *predict.VTAGE // run-shared SchemeVTAGE table
	syncBusy    uint64
	cycle       int64
	events      map[int64][]func()
	ccb         []*legacyDynEntry
	ccbHead     int
	stack       []*legacyFrame
	scratch     []uint64
	simErr      error
	callDepth   int
	finalRegs   []uint64
}

// legacyFrame is one activation record.
type legacyFrame struct {
	f        *ir.Func
	fs       *sched.FuncSched
	ans      []*BlockAnalysis
	regs     []uint64
	readyAt  []int64 // scoreboard: cycle each register's pending write lands
	lastSeq  []int64 // sequence number of the newest writer per register
	blockID  int
	instrIdx int
	inst     *legacyBlockInst // current block's speculation instance
	retDest  ir.Reg           // caller-side destination (stored on the CALLEE's legacyFrame)
	returned bool
	retVal   uint64

	// Replayed instruction-fetch state (MemReplay runs only).
	fetched    bool
	fetchUntil int64
}

// legacyBlockInst is the per-dynamic-instance speculation state of a block.
type legacyBlockInst struct {
	an    *BlockAnalysis
	sites []*legacySiteInst
	// entryOf maps op index -> CCB entry created by this instance.
	entryOf map[int]*legacyDynEntry
}

// legacyPending names one in-flight check (mirrors pendingCheck; the
// site instance is heap-allocated here, so no pinning is needed).
type legacyPending struct {
	si     *legacySiteInst
	predID int
}

// legacySiteInst is one dynamic prediction.
type legacySiteInst struct {
	predicted uint64
	resolved  bool
	correct   bool
	// suppressed marks a confidence-gated issue (see siteInst.suppressed).
	suppressed bool
	// flushed marks a site discarded by a branch mispredict while its
	// check was in flight (see siteInst.flushed).
	flushed bool
	actual  uint64
}

type legacyOperandRef struct {
	kind  srcKind
	reg   ir.Reg
	value uint64 // value observed at VLIW issue
	site  *legacySiteInst
	src   *legacyDynEntry
}

// legacyDynEntry is one Compensation Code Buffer entry (with its Operand Value
// Buffer slots inlined).
type legacyDynEntry struct {
	op       *ir.Op
	opIdx    int
	inst     *legacyBlockInst
	fr       *legacyFrame
	operands []legacyOperandRef
	seq      int64 // write sequence of the entry's own VLIW write
	issueErr error // fault observed executing speculatively on the VLIW engine

	recomputed bool
	newValue   uint64
	doneAt     int64
	bitCleared bool
}

// NewLegacySimulator wires a simulator for a scheduled (optionally transformed)
// program.
func NewLegacySimulator(prog *ir.Program, ps *sched.ProgSched, d *machine.Desc,
	schemes map[int]profile.Scheme) (*LegacySimulator, error) {

	s := &LegacySimulator{
		Prog:        prog,
		Sched:       ps,
		D:           d,
		Analyses:    map[string][]*BlockAnalysis{},
		Schemes:     schemes,
		CCBCapacity: DefaultCCBCapacity,
		MaxCycles:   1 << 34,
		preds:       map[int]predict.Predictor{},
		conf:        map[int]predict.ConfCounter{},
		events:      map[int64][]func(){},
	}
	maxRegs := 0
	for _, f := range prog.Funcs {
		ans := make([]*BlockAnalysis, len(f.Blocks))
		for i, b := range f.Blocks {
			an, err := Analyze(b)
			if err != nil {
				return nil, err
			}
			ans[i] = an
		}
		s.Analyses[f.Name] = ans
		if f.NumRegs > maxRegs {
			maxRegs = f.NumRegs
		}
	}
	s.scratch = make([]uint64, maxRegs)
	s.mem = interp.New(prog)
	return s, nil
}

// reset restores construction-time state so a reused LegacySimulator's runs are
// independent and reproducible: statistics (including MaxCCBOccupancy and
// every stall counter), engine state, predictor tables, and the
// architectural memory image all start fresh.
func (s *LegacySimulator) reset() {
	s.Cycles, s.Instrs, s.Ops = 0, 0, 0
	s.StallSync, s.StallScore, s.StallCCB, s.StallBar = 0, 0, 0, 0
	s.CCEExecuted, s.CCEFlushed, s.Mispredicts, s.Predictions = 0, 0, 0, 0
	s.Suppressed, s.SuppressedWrong = 0, 0
	s.StallRecovery = 0
	s.BranchPredicts, s.BranchMispredicts, s.BranchFlushed, s.BranchSquashed, s.StallRedirect = 0, 0, 0, 0, 0
	s.StallIFetch = 0
	s.loadCur, s.fetchCur = 0, 0
	s.MaxCCBOccupancy = 0
	s.ccbOcc = [ccbOccBuckets]int64{}
	s.Output = nil
	s.stallUntil, s.redirectUntil, s.seq, s.cycle = 0, 0, 0, 0
	s.callDepth = 0
	s.syncBusy = 0
	s.simErr = nil
	s.events = map[int64][]func(){}
	s.ccb, s.ccbHead = nil, 0
	s.stack = nil
	s.preds = map[int]predict.Predictor{}
	s.conf = map[int]predict.ConfCounter{}
	s.vtage = nil
	s.bp = predict.NewBranchPredictor(s.Control.Branch)
	s.pending, s.pendingHead = nil, 0
	s.mem.Reset()
}

// tracing reports whether a sink is attached; emitters guard on it so the
// disabled path builds no events.
func (s *LegacySimulator) tracing() bool { return s.Sink != nil }

// emit delivers one event through the reused buffer s.ev. Sinks must not
// retain an event past the call (obs.EventSink), so the caller's event
// stays on its stack and tracing allocates no event.
func (s *LegacySimulator) emit(e *obs.Event) {
	s.ev = *e
	s.Sink.Event(&s.ev)
}

// Metrics returns the observability snapshot of the most recent Run (or
// the zeroed state before any run): every stall cause, prediction and
// compensation counter, plus the CCB occupancy histogram. Snapshots of
// identical runs are identical (see reset).
func (s *LegacySimulator) Metrics() obs.Snapshot {
	reg := obs.NewRegistry()
	s.PublishMetrics(reg)
	return reg.Snapshot()
}

// PublishMetrics writes the run's counters and histograms into a shared
// registry (callers aggregating several simulators snapshot the registry
// once at the end).
func (s *LegacySimulator) PublishMetrics(reg *obs.Registry) {
	set := func(name string, v int64) { reg.Counter(name).Set(v) }
	set("sim.cycles", s.Cycles)
	set("sim.instrs", s.Instrs)
	set("sim.ops", s.Ops)
	set("stall.sync", s.StallSync)
	set("stall.scoreboard", s.StallScore)
	set("stall.ccb", s.StallCCB)
	set("stall.barrier", s.StallBar)
	set("stall.recovery", s.StallRecovery)
	set("stall.redirect", s.StallRedirect)
	set("branch.predicts", s.BranchPredicts)
	set("branch.mispredicted", s.BranchMispredicts)
	set("branch.flushed", s.BranchFlushed)
	set("branch.squashed", s.BranchSquashed)
	set("stall.ifetch", s.StallIFetch)
	set("pred.predictions", s.Predictions)
	set("pred.mispredicted", s.Mispredicts)
	set("pred.verified", s.Predictions-s.Mispredicts)
	set("pred.suppressed", s.Suppressed)
	set("pred.suppressed_wrong", s.SuppressedWrong)
	set("cce.flushed", s.CCEFlushed)
	set("cce.executed", s.CCEExecuted)
	set("ccb.max_occupancy", int64(s.MaxCCBOccupancy))
	h := reg.Histogram("ccb.occupancy", obs.Pow2Bounds(ccbOccBuckets-1))
	for i, n := range s.ccbOcc {
		h.SetBucket(i, n)
	}
}

// Run executes the entry function and returns its result. Each call starts
// from a fresh architectural state: a LegacySimulator may be reused, and every
// run reports independent statistics.
func (s *LegacySimulator) Run(entry string, args ...uint64) (uint64, error) {
	f := s.Prog.Func(entry)
	if f == nil {
		return 0, fmt.Errorf("core: no function %q", entry)
	}
	if err := s.PredCfg.Validate(); err != nil {
		return 0, err
	}
	if err := s.Control.Validate(); err != nil {
		return 0, err
	}
	s.reset()
	root := s.newFrame(f, ir.NoReg)
	copy(root.regs, args)
	s.stack = append(s.stack, root)

	for {
		if s.cycle > s.MaxCycles {
			return 0, fmt.Errorf("core: exceeded %d cycles (deadlock?)", s.MaxCycles)
		}
		// 1. Apply this cycle's events (bit clears, register write-backs,
		// check resolutions).
		if evs, ok := s.events[s.cycle]; ok {
			for _, ev := range evs {
				ev()
			}
			delete(s.events, s.cycle)
		}
		if s.simErr != nil {
			return 0, s.simErr
		}

		// 2. VLIW Engine issue attempt.
		done, err := s.stepVLIW()
		if err != nil {
			return 0, err
		}

		// 3. Compensation Code Engine: dispatch at most one entry.
		s.stepCCE()
		if s.simErr != nil {
			return 0, s.simErr
		}

		if done {
			// Drain: let outstanding events (writes) land for determinism.
			for len(s.events) > 0 {
				s.cycle++
				if evs, ok := s.events[s.cycle]; ok {
					for _, ev := range evs {
						ev()
					}
					delete(s.events, s.cycle)
				}
			}
			s.Cycles = s.cycle + 1
			s.Output = s.mem.Output
			s.finalRegs = append(s.finalRegs[:0], root.regs...)
			return root.retVal, s.simErr
		}
		s.cycle++
	}
}

// FinalRegs returns the root frame's register file as of the end of the
// most recent successful Run — the legacy half of the engine-diff
// comparison. The slice is reused across runs.
func (s *LegacySimulator) FinalRegs() []uint64 { return s.finalRegs }

func (s *LegacySimulator) newFrame(f *ir.Func, retDest ir.Reg) *legacyFrame {
	return &legacyFrame{
		f:       f,
		fs:      s.Sched.Funcs[f.Name],
		ans:     s.Analyses[f.Name],
		regs:    make([]uint64, f.NumRegs),
		readyAt: make([]int64, f.NumRegs),
		lastSeq: make([]int64, f.NumRegs),
		blockID: f.Entry,
		retDest: retDest,
	}
}

// stepVLIW attempts to issue the current long instruction of the top legacyFrame.
// It returns done=true when the root legacyFrame has returned.
func (s *LegacySimulator) stepVLIW() (bool, error) {
	fr := s.stack[len(s.stack)-1]
	if fr.returned {
		return s.popFrame(fr)
	}
	if s.cycle < s.redirectUntil {
		s.StallRedirect++
		return false, nil
	}
	if s.cycle < s.stallUntil {
		s.StallRecovery++
		return false, nil
	}
	bs := fr.fs.Blocks[fr.blockID]
	if fr.inst == nil {
		fr.inst = s.newBlockInst(fr)
	}
	if fr.instrIdx >= len(bs.Instrs) {
		// Empty block (no terminator would be invalid; handled at build).
		return false, fmt.Errorf("core: ran off schedule of %s b%d", fr.f.Name, fr.blockID)
	}
	in := bs.Instrs[fr.instrIdx]

	// Replayed instruction fetch: consume one recorded penalty per
	// dynamic instruction (mirroring the decoded engine's I-cache probe)
	// and stall until the fetch completes.
	if s.MemReplay != nil && len(s.MemReplay.Fetch) > 0 {
		if !fr.fetched {
			fr.fetched = true
			pen := int64(0)
			if s.fetchCur < len(s.MemReplay.Fetch) {
				pen = s.MemReplay.Fetch[s.fetchCur]
				s.fetchCur++
			}
			fr.fetchUntil = s.cycle + pen
		}
		if s.cycle < fr.fetchUntil {
			s.StallIFetch++
			if s.tracing() {
				s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
					Kind: obs.KindStallIFetch, Bit: -1})
			}
			return false, nil
		}
	}

	// Synchronization-register stall.
	if in.WaitBits&s.syncBusy != 0 {
		s.StallSync++
		if s.tracing() {
			s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
				Kind: obs.KindStallSync, Bit: -1, Wait: in.WaitBits, Busy: s.syncBusy})
		}
		return false, nil
	}
	// Scoreboard stall: every source (and destination) register must have
	// its pending write landed.
	for _, op := range in.Ops {
		for _, u := range op.Uses() {
			if fr.readyAt[u] > s.cycle {
				s.StallScore++
				if s.tracing() {
					s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
						Kind: obs.KindStallScore, Op: op, Bit: -1, Reg: u})
				}
				return false, nil
			}
		}
		if d := op.Def(); d != ir.NoReg && fr.readyAt[d] > s.cycle {
			s.StallScore++
			if s.tracing() {
				s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
					Kind: obs.KindStallScore, Op: op, Bit: -1, Reg: d})
			}
			return false, nil
		}
	}
	// Structural stalls: CCB space, Synchronization bit reuse, barriers.
	specNeeded := 0
	for _, op := range in.Ops {
		if op.Speculative {
			specNeeded++
		}
		if op.SyncBit != ir.NoBit && op.Code != ir.CheckLd && s.syncBusy&(1<<uint(op.SyncBit)) != 0 {
			s.StallSync++
			if s.tracing() {
				s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
					Kind: obs.KindStallSync, Op: op, Bit: op.SyncBit,
					Wait: 1 << uint(op.SyncBit), Busy: s.syncBusy})
			}
			return false, nil
		}
		if op.Code == ir.Call || op.Code == ir.Ret {
			if s.syncBusy != 0 || s.ccbHead < len(s.ccb) {
				s.StallBar++
				if s.tracing() {
					s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
						Kind: obs.KindStallBarrier, Op: op, Bit: -1, Busy: s.syncBusy})
				}
				return false, nil
			}
		}
	}
	if specNeeded > 0 && len(s.ccb)-s.ccbHead+specNeeded > s.CCBCapacity {
		s.StallCCB++
		if s.tracing() {
			s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
				Kind: obs.KindStallCCB, Bit: -1})
		}
		return false, nil
	}

	if s.tracing() {
		s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW, Kind: obs.KindInstrIssue,
			Bit: -1, Func: fr.f.Name, Block: fr.blockID, Instr: fr.instrIdx})
	}
	// Issue. Operations within one long instruction execute in program
	// order so same-cycle anti-dependences (reader packed with a later
	// writer) read the old value.
	s.Instrs++
	an := fr.ans[fr.blockID]
	ops := append([]*ir.Op(nil), in.Ops...)
	sort.Slice(ops, func(i, j int) bool { return an.IndexOf(ops[i]) < an.IndexOf(ops[j]) })
	var control *ir.Op
	for _, op := range ops {
		s.Ops++
		if op.Code.IsTerminator() || op.Code == ir.Call {
			control = op // handled after data ops so same-cycle state is set
			continue
		}
		if err := s.issueDataOp(fr, op); err != nil {
			return false, err
		}
	}
	fr.instrIdx++
	fr.fetched = false
	if control != nil {
		return s.issueControl(fr, control)
	}
	return false, nil
}

// replayLoadLat consumes the next recorded demand-load latency, or returns
// the machine-description default when no replay is attached (or the trace
// is exhausted — the engine-diff separately asserts full consumption).
func (s *LegacySimulator) replayLoadLat(def int64) int64 {
	if s.MemReplay == nil || s.loadCur >= len(s.MemReplay.Loads) {
		return def
	}
	lat := s.MemReplay.Loads[s.loadCur]
	s.loadCur++
	return lat
}

func (s *LegacySimulator) newBlockInst(fr *legacyFrame) *legacyBlockInst {
	an := fr.ans[fr.blockID]
	bi := &legacyBlockInst{an: an, entryOf: map[int]*legacyDynEntry{}}
	for range an.Sites {
		bi.sites = append(bi.sites, &legacySiteInst{})
	}
	return bi
}

// issueDataOp performs the VLIW-side execution of one non-control op.
func (s *LegacySimulator) issueDataOp(fr *legacyFrame, op *ir.Op) error {
	an := fr.ans[fr.blockID]
	lat := int64(s.D.Latency(op))

	switch op.Code {
	case ir.LdPred:
		li := an.SiteLocal[op.PredID]
		si := fr.inst.sites[li]
		p := s.sitePredictor(op.PredID)
		v, _ := p.Predict() // cold predictors supply 0 (and mispredict)
		si.predicted = v
		si.suppressed = s.PredCfg.Gating() &&
			!s.conf[op.PredID].Confident(s.PredCfg.ConfThreshold)
		s.syncBusy |= 1 << uint(op.SyncBit)
		if s.tracing() {
			kind := obs.KindLdPredIssue
			if si.suppressed {
				kind = obs.KindPredSuppress
			}
			s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
				Kind: kind, Op: op, Bit: op.SyncBit, Predicted: int64(v)})
		}
		s.writeReg(fr, op.Dest, v, lat)
		if si.suppressed {
			s.Suppressed++
		} else {
			s.Predictions++
		}
		return nil

	case ir.CheckLd:
		li := an.SiteLocal[op.PredID]
		si := fr.inst.sites[li]
		addr := int64(fr.regs[op.A]) + op.Imm
		if addr < 1 || addr >= int64(len(s.mem.Mem)) {
			return fmt.Errorf("core: %s: check load address %d out of range", fr.f.Name, addr)
		}
		actual := s.mem.Mem[addr]
		lat = s.replayLoadLat(lat)
		bit := uint64(1) << uint(an.Sites[li].Bit)
		seq := s.nextSeq(fr, op.Dest)
		if s.tracing() {
			s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
				Kind: obs.KindCheckIssue, Op: op, Bit: -1, Done: s.cycle + lat,
				Site: op.PredID, Correct: actual == si.predicted})
		}
		s.at(s.cycle+lat, func() {
			si.resolved = true
			si.actual = actual
			correct := actual == si.predicted
			if s.tracing() {
				s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
					Kind: obs.KindCheckResolve, Op: op, Bit: -1, Site: op.PredID,
					Predicted: int64(si.predicted), Actual: int64(actual),
					Correct: correct, Gated: si.suppressed, Flushed: si.flushed})
			}
			s.syncBusy &^= bit // the LdPred bit always clears
			verified := correct && !si.suppressed && !si.flushed
			if si.suppressed && !correct {
				s.SuppressedWrong++
				if s.FaultConfidenceMisgate {
					verified = true
				}
			}
			if verified {
				si.correct = true
				s.clearVerifiedBits()
			} else {
				if !si.suppressed && !correct {
					s.Mispredicts++
				}
				s.applyWrite(fr, op.Dest, actual, seq)
				if s.SerialRecovery {
					// Branch to the statically scheduled recovery block,
					// run it serially on the main engine, branch back. A
					// suppressed or flushed site charges only the recovery
					// schedule (the fall-through path, no taken branches).
					rl, ok := s.RecoveryLen[op.PredID]
					if !ok {
						rl = 1
					}
					stall := int64(rl)
					if !si.suppressed && !correct {
						stall += int64(2 * s.Control.BranchPenalty)
					}
					until := s.cycle + stall
					if until > s.stallUntil {
						s.stallUntil = until
					}
				}
			}
			if s.SerialRecovery {
				s.drainResolvedSerial()
			}
			if s.PredCfg.Gating() {
				c := s.conf[op.PredID]
				c.Train(correct, s.PredCfg.ConfMax())
				s.conf[op.PredID] = c
			}
			p := s.sitePredictor(op.PredID)
			p.Update(actual)
			// Sweep resolved entries off the pending-check list's head
			// (mirrors Simulator.resolveCheck).
			for s.pendingHead < len(s.pending) {
				if !s.pending[s.pendingHead].si.resolved {
					break
				}
				s.pending[s.pendingHead] = legacyPending{}
				s.pendingHead++
			}
			if s.pendingHead == len(s.pending) {
				s.pending, s.pendingHead = s.pending[:0], 0
			}
		})
		s.pending = append(s.pending, legacyPending{si: si, predID: op.PredID})
		fr.readyAt[op.Dest] = s.cycle + lat
		return nil

	default:
		if op.Speculative {
			return s.issueSpecOp(fr, an, op)
		}
		// Non-speculative: operands are verified correct; execute with
		// architectural state and real fault semantics. Load latencies
		// replay before execution, matching the decoded engine's
		// access-then-execute record order.
		if op.Code == ir.Load {
			lat = s.replayLoadLat(lat)
		}
		v, err := s.execValue(fr.f, op, fr.regs)
		if err != nil {
			return fmt.Errorf("core: %s b%d %s: %w", fr.f.Name, fr.blockID, op, err)
		}
		if d := op.Def(); d != ir.NoReg {
			s.writeReg(fr, d, v, lat)
		}
		return nil
	}
}

// issueSpecOp executes a speculative op with (possibly predicted) register
// values and buffers it in the CCB for verification-driven flush/re-execute.
func (s *LegacySimulator) issueSpecOp(fr *legacyFrame, an *BlockAnalysis, op *ir.Op) error {
	idx := an.IndexOf(op)
	uses := op.Uses()
	info := an.Info[idx]

	// If every prediction this op consumes has already verified correct,
	// its operands are plain correct values: issue it as an ordinary op.
	if s.predsVerifiedCorrect(fr.inst, info.PredSet) {
		lat := int64(s.D.Latency(op))
		if op.Code == ir.Load {
			lat = s.replayLoadLat(lat)
		}
		v, err := s.execValue(fr.f, op, fr.regs)
		if err != nil {
			return fmt.Errorf("core: %s: %w", op, err)
		}
		if s.tracing() {
			s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
				Kind: obs.KindPlainIssue, Op: op, Bit: -1})
		}
		s.writeReg(fr, op.Dest, v, lat)
		return nil
	}

	e := &legacyDynEntry{op: op, opIdx: idx, inst: fr.inst, fr: fr}
	for k, u := range uses {
		ref := legacyOperandRef{kind: srcCorrect, reg: u, value: fr.regs[u]}
		if p := info.Producers[k]; p >= 0 {
			prod := an.Block.Ops[p]
			switch {
			case prod.Code == ir.LdPred:
				ref.kind = srcLdPred
				ref.site = fr.inst.sites[an.SiteLocal[prod.PredID]]
			case prod.Speculative:
				ref.kind = srcSpec
				ref.src = fr.inst.entryOf[p]
			}
		}
		e.operands = append(e.operands, ref)
	}

	// Execute on the VLIW engine with current (predicted) values.
	// Speculative faults are deferred: a poison zero result stands in until
	// verification decides whether the fault was real.
	lat := int64(s.D.Latency(op))
	if op.Code == ir.Load {
		lat = s.replayLoadLat(lat)
	}
	v, err := s.execValue(fr.f, op, fr.regs)
	if err != nil {
		e.issueErr = err
		v = 0
	}
	s.syncBusy |= 1 << uint(op.SyncBit)
	e.seq = s.nextSeq(fr, op.Dest)
	s.applyWriteAt(fr, op.Dest, v, e.seq, s.cycle+lat)
	fr.readyAt[op.Dest] = s.cycle + lat

	fr.inst.entryOf[idx] = e
	s.ccb = append(s.ccb, e)
	live := len(s.ccb) - s.ccbHead
	if live > s.MaxCCBOccupancy {
		s.MaxCCBOccupancy = live
	}
	occ := bits.Len(uint(live - 1))
	if occ >= ccbOccBuckets {
		occ = ccbOccBuckets - 1
	}
	s.ccbOcc[occ]++
	if s.tracing() {
		s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
			Kind: obs.KindBufferCCB, Op: op, Bit: op.SyncBit,
			Operands: legacyDynSiteStates(fr.inst, info.PredSet)})
	}
	return nil
}

// legacyDynSiteStates renders the dynamic verification state of every prediction
// site a buffered op depends on, in the paper's notation: PN before the
// site's check resolves, then C or R (see DESIGN.md §8).
func legacyDynSiteStates(inst *legacyBlockInst, set uint32) []obs.SiteState {
	var out []obs.SiteState
	for li, si := range inst.sites {
		if set&(1<<uint(li)) == 0 {
			continue
		}
		state := obs.StatePN
		if si.resolved {
			if si.correct {
				state = obs.StateC
			} else {
				state = obs.StateR
			}
		}
		out = append(out, obs.SiteState{Site: li, State: state})
	}
	return out
}

// issueControl handles branches, calls, and returns (issued after the data
// ops of the same long instruction).
func (s *LegacySimulator) issueControl(fr *legacyFrame, op *ir.Op) (bool, error) {
	b := fr.f.Blocks[fr.blockID]
	switch op.Code {
	case ir.Jmp:
		s.enterBlock(fr, b.Succs[0])
		return false, nil
	case ir.Br:
		taken := fr.regs[op.A] != 0
		if s.Control.Dynamic() {
			pc := branchPC(fr.f.Name, fr.blockID)
			pred := s.bp.Predict(pc)
			s.BranchPredicts++
			if pred != taken {
				s.BranchMispredicts++
				if s.tracing() {
					var p int64
					if pred {
						p = 1
					}
					s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
						Kind: obs.KindBranchMispredict, Bit: -1,
						Func: fr.f.Name, Block: fr.blockID, Predicted: p})
				}
				if !s.FaultBranchFlushElide {
					s.flushInFlight()
				}
				if until := s.cycle + int64(s.Control.FlushLat()); until > s.redirectUntil {
					s.redirectUntil = until
				}
			} else if taken {
				if until := s.cycle + int64(s.Control.RedirectLat()); until > s.redirectUntil {
					s.redirectUntil = until
				}
			}
			s.bp.Update(pc, taken)
		}
		if taken {
			s.enterBlock(fr, b.Succs[0])
		} else {
			s.enterBlock(fr, b.Succs[1])
		}
		return false, nil
	case ir.Call:
		return false, s.issueCall(fr, op)
	case ir.Ret:
		var v uint64
		if op.A != ir.NoReg {
			v = fr.regs[op.A]
		}
		fr.returned = true
		fr.retVal = v
		return s.popFrame(fr)
	}
	return false, fmt.Errorf("core: unexpected control op %s", op)
}

// flushInFlight mirrors Simulator.flushInFlight: every in-flight
// (issued, unresolved) site is marked branch-flushed and will take the
// repair path when its check closure fires, and the verified-correct
// head run of the compensation buffer is squashed wholesale instead of
// draining through the CCE at one no-op flush per cycle.
func (s *LegacySimulator) flushInFlight() {
	for i := s.pendingHead; i < len(s.pending); i++ {
		pc := s.pending[i]
		if pc.si.resolved || pc.si.flushed {
			continue
		}
		pc.si.flushed = true
		s.BranchFlushed++
		if s.tracing() {
			s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
				Kind: obs.KindBranchFlush, Bit: -1, Site: pc.predID})
		}
	}
	for s.ccbHead < len(s.ccb) {
		e := s.ccb[s.ccbHead]
		if !s.predsVerifiedCorrect(e.inst, e.inst.an.Info[e.opIdx].PredSet) {
			break
		}
		// A deferred speculative fault on an all-correct path is a real
		// fault, exactly as on the CCE flush path.
		if e.issueErr != nil {
			s.simErr = fmt.Errorf("core: %s: %w", e.op, e.issueErr)
		}
		if s.tracing() {
			s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineCCE,
				Kind: obs.KindBranchFlush, Op: e.op, Bit: -1})
		}
		if !e.bitCleared {
			e.bitCleared = true
			bit := uint64(0)
			if e.op.SyncBit != ir.NoBit {
				bit = 1 << uint(e.op.SyncBit)
			}
			s.at(s.cycle+1, func() { s.syncBusy &^= bit })
		}
		s.BranchFlushed++
		s.BranchSquashed++
		s.ccbHead++
	}
	s.compactCCB()
}

func (s *LegacySimulator) enterBlock(fr *legacyFrame, next int) {
	fr.blockID = next
	fr.instrIdx = 0
	fr.inst = nil
	fr.fetched = false
}

func (s *LegacySimulator) issueCall(fr *legacyFrame, op *ir.Op) error {
	switch op.Sym {
	case "print":
		s.mem.Output = append(s.mem.Output, strconv.FormatInt(int64(fr.regs[op.Args[0]]), 10))
		return nil
	case "fprint":
		v := math.Float64frombits(fr.regs[op.Args[0]])
		s.mem.Output = append(s.mem.Output, strconv.FormatFloat(v, 'g', -1, 64))
		return nil
	}
	callee := s.Prog.Func(op.Sym)
	if callee == nil {
		return fmt.Errorf("core: call to unknown %q", op.Sym)
	}
	if s.callDepth > maxSimCallDepth {
		return fmt.Errorf("core: call depth exceeded at %q", op.Sym)
	}
	s.callDepth++
	nf := s.newFrame(callee, op.Dest)
	for i, a := range op.Args {
		nf.regs[i] = fr.regs[a]
	}
	s.stack = append(s.stack, nf)
	return nil
}

// popFrame retires a returned legacyFrame, delivering the return value.
func (s *LegacySimulator) popFrame(fr *legacyFrame) (bool, error) {
	if len(s.stack) == 1 {
		return true, nil // root function returned
	}
	s.stack = s.stack[:len(s.stack)-1]
	s.callDepth--
	caller := s.stack[len(s.stack)-1]
	if fr.retDest != ir.NoReg {
		s.writeReg(caller, fr.retDest, fr.retVal, 1)
	}
	return false, nil
}

// drainResolvedSerial retires buffered speculative entries in the serial
// recovery machine: once every prediction an entry depends on is verified,
// the entry is either discarded (all correct) or architecturally
// re-executed immediately — the recovery block's serial execution time was
// already charged as a stall when the misprediction was detected.
func (s *LegacySimulator) drainResolvedSerial() {
	for s.ccbHead < len(s.ccb) {
		e := s.ccb[s.ccbHead]
		need := e.inst.an.Info[e.opIdx].PredSet
		wrong := false
		resolved := true
		for li, si := range e.inst.sites {
			if need&(1<<uint(li)) == 0 {
				continue
			}
			if !si.resolved {
				resolved = false
				break
			}
			if !si.correct {
				wrong = true
			}
		}
		if !resolved {
			return
		}
		bit := uint64(0)
		if e.op.SyncBit != ir.NoBit {
			bit = 1 << uint(e.op.SyncBit)
		}
		if wrong {
			for _, ref := range e.operands {
				s.scratch[ref.reg] = ref.correctedValue()
			}
			v, err := s.execValue(e.fr.f, e.op, s.scratch)
			if err != nil {
				s.simErr = fmt.Errorf("core: serial recovery of %s: %w", e.op, err)
				return
			}
			v ^= s.FaultCCEWritebackXor
			e.recomputed = true
			e.newValue = v
			e.doneAt = s.cycle
			if s.tracing() {
				s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineCCE,
					Kind: obs.KindCCEExecute, Op: e.op, Bit: e.op.SyncBit, Done: e.doneAt})
			}
			// Re-issue under a fresh sequence number: the recovery block's
			// write supersedes the original operation's still-in-flight
			// predicted-path writeback.
			seq := s.nextSeq(e.fr, e.op.Dest)
			s.applyWrite(e.fr, e.op.Dest, v, seq)
			s.CCEExecuted++
		} else {
			if e.issueErr != nil {
				s.simErr = fmt.Errorf("core: %s: %w", e.op, e.issueErr)
				return
			}
			if s.tracing() {
				s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineCCE,
					Kind: obs.KindCCEFlush, Op: e.op, Bit: -1})
			}
			s.CCEFlushed++
		}
		if !e.bitCleared {
			e.bitCleared = true
			s.syncBusy &^= bit
		}
		s.ccbHead++
	}
	s.compactCCB()
}

// stepCCE dispatches at most one Compensation Code Buffer entry per cycle.
func (s *LegacySimulator) stepCCE() {
	if s.SerialRecovery {
		// No second engine in the [4] baseline machine: entries retire
		// inline as soon as their predictions are all verified (their cost
		// was charged as a recovery stall at misprediction time).
		s.drainResolvedSerial()
		return
	}
	if s.ccbHead >= len(s.ccb) {
		return
	}
	e := s.ccb[s.ccbHead]
	// All involved predictions must be verified.
	need := e.inst.an.Info[e.opIdx].PredSet
	wrong := false
	for li, si := range e.inst.sites {
		if need&(1<<uint(li)) == 0 {
			continue
		}
		if !si.resolved {
			return // stall
		}
		if !si.correct {
			wrong = true
		}
	}

	defer s.compactCCB()
	bit := uint64(0)
	if e.op.SyncBit != ir.NoBit {
		bit = 1 << uint(e.op.SyncBit)
	}
	if !wrong {
		// Flush: the VLIW-computed value was correct. A deferred
		// speculative fault on an all-correct path is a real fault.
		if e.issueErr != nil {
			s.simErr = fmt.Errorf("core: %s: %w", e.op, e.issueErr)
		}
		if s.tracing() {
			s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineCCE,
				Kind: obs.KindCCEFlush, Op: e.op, Bit: -1})
		}
		if !e.bitCleared {
			e.bitCleared = true
			s.at(s.cycle+1, func() { s.syncBusy &^= bit })
		}
		s.CCEFlushed++
		s.ccbHead++
		return
	}
	// Re-execute with corrected operand values once they are available.
	for _, ref := range e.operands {
		if ref.kind == srcSpec && ref.src != nil && ref.src.recomputed && ref.src.doneAt > s.cycle {
			return // corrected producer value still in the pipeline
		}
	}
	for _, ref := range e.operands {
		s.scratch[ref.reg] = ref.correctedValue()
	}
	lat := int64(s.D.Latency(e.op))
	if e.op.Code == ir.Load {
		lat = s.replayLoadLat(lat)
	}
	v, err := s.execValue(e.fr.f, e.op, s.scratch)
	if err != nil {
		// Correct operands and still faulting: a real fault.
		s.simErr = fmt.Errorf("core: compensation re-execution of %s: %w", e.op, err)
		return
	}
	v ^= s.FaultCCEWritebackXor
	e.recomputed = true
	e.newValue = v
	e.doneAt = s.cycle + lat
	if s.tracing() {
		s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineCCE,
			Kind: obs.KindCCEExecute, Op: e.op, Bit: e.op.SyncBit, Done: e.doneAt})
	}
	fr, op, seq := e.fr, e.op, e.seq
	cleared := e.bitCleared
	e.bitCleared = true
	s.at(e.doneAt, func() {
		if !cleared {
			s.syncBusy &^= bit
		}
		s.applyWrite(fr, op.Dest, v, seq)
	})
	s.CCEExecuted++
	s.ccbHead++
}

// predsVerifiedCorrect reports whether every site in the local predset has
// resolved as a correct prediction.
func (s *LegacySimulator) predsVerifiedCorrect(inst *legacyBlockInst, set uint32) bool {
	for li, si := range inst.sites {
		if set&(1<<uint(li)) == 0 {
			continue
		}
		if !si.resolved || !si.correct {
			return false
		}
	}
	return true
}

// clearVerifiedBits clears the Synchronization bits of buffered speculative
// ops whose every involved prediction has verified correct — the run-time
// effect of the check-prediction ClearBits encoding, generalized to
// multi-prediction dependents (cleared when the last involved check
// verifies).
func (s *LegacySimulator) clearVerifiedBits() {
	for i := s.ccbHead; i < len(s.ccb); i++ {
		e := s.ccb[i]
		if e.bitCleared || e.op.SyncBit == ir.NoBit {
			continue
		}
		if s.predsVerifiedCorrect(e.inst, e.inst.an.Info[e.opIdx].PredSet) {
			s.syncBusy &^= 1 << uint(e.op.SyncBit)
			e.bitCleared = true
		}
	}
}

// compactCCB reclaims retired entries occasionally.
func (s *LegacySimulator) compactCCB() {
	if s.ccbHead > 256 && s.ccbHead*2 > len(s.ccb) {
		s.ccb = append([]*legacyDynEntry(nil), s.ccb[s.ccbHead:]...)
		s.ccbHead = 0
	}
}

// correctedValue resolves an operand through the Operand Value Buffer
// semantics: predicted values are replaced by their verified values,
// speculatively computed values by their recomputed ones.
func (r *legacyOperandRef) correctedValue() uint64 {
	switch r.kind {
	case srcLdPred:
		if r.site.resolved {
			return r.site.actual
		}
		return r.value
	case srcSpec:
		if r.src != nil && r.src.recomputed {
			return r.src.newValue
		}
		return r.value
	default:
		return r.value
	}
}

// execValue runs one operation's semantics against the given register file
// and returns the destination value (0 for ops without one).
func (s *LegacySimulator) execValue(f *ir.Func, op *ir.Op, regs []uint64) (uint64, error) {
	if err := s.mem.ExecOp(f, op, regs); err != nil {
		return 0, err
	}
	if d := op.Def(); d != ir.NoReg {
		return regs[d], nil
	}
	return 0, nil
}

// writeReg schedules a register write that lands lat cycles after issue.
func (s *LegacySimulator) writeReg(fr *legacyFrame, r ir.Reg, v uint64, lat int64) {
	if r == ir.NoReg {
		return
	}
	seq := s.nextSeq(fr, r)
	s.applyWriteAt(fr, r, v, seq, s.cycle+lat)
	fr.readyAt[r] = s.cycle + lat
}

func (s *LegacySimulator) nextSeq(fr *legacyFrame, r ir.Reg) int64 {
	s.seq++
	if r != ir.NoReg {
		fr.lastSeq[r] = s.seq
	}
	return s.seq
}

func (s *LegacySimulator) applyWriteAt(fr *legacyFrame, r ir.Reg, v uint64, seq, when int64) {
	s.at(when, func() { s.applyWrite(fr, r, v, seq) })
}

// applyWrite commits a register value unless a newer writer has claimed the
// register (the write-port arbitration that keeps late compensation
// write-backs from clobbering younger definitions).
func (s *LegacySimulator) applyWrite(fr *legacyFrame, r ir.Reg, v uint64, seq int64) {
	if r == ir.NoReg {
		return
	}
	if fr.lastSeq[r] != seq {
		if s.tracing() {
			s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
				Kind: obs.KindRegWriteSuppressed, Bit: -1, Reg: r,
				Value: int64(v), Seq: seq, LastSeq: fr.lastSeq[r]})
		}
		return
	}
	if s.tracing() {
		s.emit(&obs.Event{Cycle: s.cycle, Engine: obs.EngineVLIW,
			Kind: obs.KindRegWrite, Bit: -1, Reg: r, Value: int64(v), Seq: seq})
	}
	fr.regs[r] = v
}

func (s *LegacySimulator) at(cycle int64, f func()) {
	if cycle <= s.cycle {
		f()
		return
	}
	s.events[cycle] = append(s.events[cycle], f)
}

func (s *LegacySimulator) sitePredictor(predID int) predict.Predictor {
	p := s.preds[predID]
	if p == nil {
		if s.NewPredictor != nil {
			p = s.NewPredictor(predID)
		}
		if p == nil {
			switch s.Schemes[predID] {
			case profile.SchemeFCM:
				p = predict.NewFCM(s.PredCfg.Order(), s.PredCfg.TableBits())
			case profile.SchemeLast:
				p = predict.NewLastValue()
			case profile.SchemeLNV:
				p = predict.NewLastN(s.PredCfg.Depth())
			case profile.SchemeHybrid:
				p = predict.NewHybrid(s.PredCfg.Order(), s.PredCfg.TableBits())
			case profile.SchemeVTAGE:
				if s.vtage == nil {
					s.vtage = predict.NewVTAGE(s.PredCfg.TagTableBits())
				}
				p = s.vtage.Site(predID)
			default:
				p = predict.NewStride()
			}
		}
		s.preds[predID] = p
	}
	return p
}

// Memory returns the simulator's memory image (for state validation).
func (s *LegacySimulator) Memory() []uint64 { return s.mem.Mem }
