package core

import (
	"fmt"
	"math/bits"

	"vliwvp/internal/ir"
	"vliwvp/internal/machine"
	"vliwvp/internal/obs"
	"vliwvp/internal/sched"
)

// Timing is the per-block dual-engine cycle model. Given a scheduled,
// transformed block and a forced outcome mask (bit i set = block's i-th
// prediction site correct), it plays the VLIW Engine and the Compensation
// Code Engine cycle by cycle and reports the effective block length.
//
// Synchronization-bit lifecycle (§2.1–2.3 of the paper):
//   - set when the LdPred or speculative op issues;
//   - a LdPred bit clears when its check-prediction op completes;
//   - a speculative op's bit clears as soon as every prediction its value
//     consumes is verified correct (the check-prediction ClearBits
//     encoding), or — after a misprediction — when the Compensation Code
//     Engine finishes re-executing it;
//   - a speculative op that issues after all its predictions verified
//     correct is issued as a plain operation (no bit, no CCB entry).
//
// A Timing reuses internal scratch buffers across SimulateBlock calls, so
// the untraced steady state allocates nothing; consequently a Timing is
// not safe for concurrent use (callers that share one across goroutines
// must serialize, as exp.BlockData does).
type Timing struct {
	D *machine.Desc
	// CCBCapacity bounds in-flight speculative operations; the VLIW Engine
	// stalls issuing further speculative ops when the buffer is full. It
	// must be at least the per-block Synchronization-bit budget or a block
	// whose speculative window exceeds the buffer deadlocks (reported as
	// an error).
	CCBCapacity int
	// MaxCycles guards against deadlock bugs.
	MaxCycles int
	// Sink, when set, receives a typed obs.Event per engine event — the
	// cycle-by-cycle CCB/OVB narrative of the paper's Figure 7. With no
	// sink attached the event path is skipped entirely (no rendering, no
	// allocation). obs.TextFunc adapts a line callback.
	Sink obs.EventSink

	// Scratch reused across SimulateBlock calls (see the type comment).
	resolveAt []int
	ccb       []ccbEntry
	// clearWheel is a power-of-two ring of cycle -> Synchronization bits to
	// clear at the start of that cycle (replacing a map keyed by cycle):
	// slot cycle&(len-1), valid because every scheduled clear lands within
	// one operation latency of the current cycle, far below the ring size.
	// clearPending counts occupied slots (the old map's len()).
	clearWheel   []uint64
	clearPending int
	// valueReady is indexed by block op index: the cycle a recomputed
	// producer's corrected value becomes available, -1 when not recomputed.
	valueReady []int
	// ev and operands are the reused event buffer emit copies each event
	// into, as both dynamic engines do: the obs.EventSink contract forbids
	// retaining e or e.Operands, so a traced run allocates no event.
	ev       obs.Event
	operands []obs.SiteState
}

// clearWheelSlots sizes the timing model's bit-clear ring. Power of two,
// and far larger than any operation latency (stock max is 8); insertion
// checks the horizon so an exotic machine description degrades to an error
// rather than silent bit merging.
const clearWheelSlots = 256

// DefaultCCBCapacity matches a small dedicated buffer (entries).
const DefaultCCBCapacity = 64

// NewTiming returns a timing model for the machine.
func NewTiming(d *machine.Desc) *Timing {
	return &Timing{D: d, CCBCapacity: DefaultCCBCapacity, MaxCycles: 1 << 20}
}

// BlockResult reports one simulated block instance.
type BlockResult struct {
	// Length is the effective schedule length: issue cycle of the final
	// long instruction plus one (the paper's schedule-length accounting).
	Length int
	// DrainCycle is when the Compensation Code Engine finished the last
	// entry (>= Length-1 when compensation outlives the block).
	DrainCycle int
	// StallCycles counts cycles the VLIW Engine spent stalled on the
	// Synchronization register or a full CCB.
	StallCycles int
	// CCEExecuted counts compensation operations actually re-executed.
	CCEExecuted int
	// CCEFlushed counts correctly-speculated operations flushed.
	CCEFlushed int
}

// ccbEntry is one buffered speculative operation in the timing model.
type ccbEntry struct {
	opIdx     int
	predSet   uint32
	recompute bool
	bit       int // sync bit, NoBit-free (always valid for buffered entries)
	bitLive   bool
	doneAt    int
}

// SimulateBlock plays one instance of the block. bs must be the schedule of
// an.Block.
func (t *Timing) SimulateBlock(bs *sched.BlockSched, an *BlockAnalysis, outcome uint32) (BlockResult, error) {
	sink := t.Sink
	if bs.Block != an.Block {
		return BlockResult{}, fmt.Errorf("core: schedule and analysis disagree on block")
	}
	capacity := t.CCBCapacity
	if capacity <= 0 {
		capacity = DefaultCCBCapacity
	}
	maxCycles := t.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 1 << 20
	}

	var res BlockResult
	nSites := len(an.Sites)
	// Reset reused scratch.
	if cap(t.resolveAt) < nSites {
		t.resolveAt = make([]int, nSites)
	}
	resolveAt := t.resolveAt[:nSites] // cycle the site's check completes (-1 unknown)
	for i := range resolveAt {
		resolveAt[i] = -1
	}
	if t.clearWheel == nil {
		t.clearWheel = make([]uint64, clearWheelSlots)
	} else {
		for i := range t.clearWheel {
			t.clearWheel[i] = 0
		}
	}
	t.clearPending = 0
	clearHorizonErr := false
	// scheduleClear records bits to clear at the start of the given cycle.
	scheduleClear := func(now, cycle int, bitMask uint64) {
		if cycle-now >= clearWheelSlots {
			clearHorizonErr = true
			return
		}
		slot := &t.clearWheel[cycle&(clearWheelSlots-1)]
		if *slot == 0 {
			t.clearPending++
		}
		*slot |= bitMask
	}
	nOps := len(an.Block.Ops)
	if cap(t.valueReady) < nOps {
		t.valueReady = make([]int, nOps)
	}
	valueReady := t.valueReady[:nOps]
	for i := range valueReady {
		valueReady[i] = -1
	}
	t.ccb = t.ccb[:0]

	var syncBusy uint64
	head := 0
	live := 0 // undispatched entries

	resolvedCorrect := func(set uint32, cycle int) bool {
		for set != 0 {
			s := bits.TrailingZeros32(set)
			set &^= 1 << uint(s)
			if resolveAt[s] < 0 || cycle < resolveAt[s] || outcome&(1<<uint(s)) == 0 {
				return false
			}
		}
		return true
	}
	resolved := func(set uint32, cycle int) bool {
		for set != 0 {
			s := bits.TrailingZeros32(set)
			set &^= 1 << uint(s)
			if resolveAt[s] < 0 || cycle < resolveAt[s] {
				return false
			}
		}
		return true
	}
	operandsReady := func(e *ccbEntry, cycle int) bool {
		for _, p := range an.Info[e.opIdx].Producers {
			if p < 0 {
				continue
			}
			if r := valueReady[p]; r >= 0 && cycle < r {
				return false
			}
		}
		return true
	}

	instr := 0
	lastIssue := -1
	for cycle := 0; ; cycle++ {
		if cycle > maxCycles {
			return res, fmt.Errorf("core: block timing exceeded %d cycles (CCB capacity %d too small for the speculative window?)", maxCycles, capacity)
		}
		if clearHorizonErr {
			return res, fmt.Errorf("core: operation latency exceeds the %d-cycle clear horizon", clearWheelSlots)
		}
		if slot := &t.clearWheel[cycle&(clearWheelSlots-1)]; *slot != 0 {
			syncBusy &^= *slot
			*slot = 0
			t.clearPending--
		}
		// Clear bits of buffered speculative ops whose every prediction is
		// now verified correct (the paper's check-driven ClearBits).
		for i := head; i < len(t.ccb); i++ {
			e := &t.ccb[i]
			if e.bitLive && !e.recompute && resolvedCorrect(e.predSet, cycle) {
				syncBusy &^= 1 << uint(e.bit)
				e.bitLive = false
			}
		}

		// --- VLIW Engine: try to issue the next long instruction. ---
		if instr < len(bs.Instrs) {
			in := bs.Instrs[instr]
			specNeeded := 0
			for _, op := range in.Ops {
				if op.Speculative && !resolvedCorrect(an.Info[an.IndexOf(op)].PredSet, cycle) {
					specNeeded++
				}
			}
			switch {
			case in.WaitBits&syncBusy != 0:
				res.StallCycles++
				if sink != nil {
					t.emit(&obs.Event{Cycle: int64(cycle), Engine: obs.EngineVLIW,
						Kind: obs.KindStallSync, Bit: -1, Wait: in.WaitBits, Busy: syncBusy})
				}
			case specNeeded > 0 && live+specNeeded > capacity:
				res.StallCycles++
				if sink != nil {
					t.emit(&obs.Event{Cycle: int64(cycle), Engine: obs.EngineVLIW,
						Kind: obs.KindStallCCB, Bit: -1})
				}
			default:
				for _, op := range in.Ops {
					idx := an.IndexOf(op)
					switch {
					case op.Code == ir.LdPred:
						syncBusy |= 1 << uint(op.SyncBit)
						if sink != nil {
							t.emit(&obs.Event{Cycle: int64(cycle), Engine: obs.EngineVLIW,
								Kind: obs.KindLdPredIssue, Op: op, Bit: op.SyncBit})
						}
					case op.Code == ir.CheckLd:
						li := an.SiteLocal[op.PredID]
						done := cycle + t.D.Latency(op)
						resolveAt[li] = done
						scheduleClear(cycle, done, 1<<uint(an.Sites[li].Bit))
						if sink != nil {
							correct := outcome&(1<<uint(li)) != 0
							t.emit(&obs.Event{Cycle: int64(cycle), Engine: obs.EngineVLIW,
								Kind: obs.KindCheckIssue, Op: op, Bit: -1,
								Done: int64(done), Correct: correct, Site: li})
						}
					case op.Speculative:
						if resolvedCorrect(an.Info[idx].PredSet, cycle) {
							if sink != nil {
								t.emit(&obs.Event{Cycle: int64(cycle), Engine: obs.EngineVLIW,
									Kind: obs.KindPlainIssue, Op: op, Bit: -1})
							}
							break // verified before issue: plain operation
						}
						syncBusy |= 1 << uint(op.SyncBit)
						t.ccb = append(t.ccb, ccbEntry{
							opIdx:     idx,
							predSet:   an.Info[idx].PredSet,
							recompute: an.Info[idx].PredSet&^outcome != 0,
							bit:       op.SyncBit,
							bitLive:   true,
						})
						live++
						if sink != nil {
							t.emit(&obs.Event{Cycle: int64(cycle), Engine: obs.EngineVLIW,
								Kind: obs.KindBufferCCB, Op: op, Bit: op.SyncBit,
								Operands: t.operandSiteStates(an, idx, resolveAt, outcome, cycle)})
						}
					}
				}
				lastIssue = cycle
				instr++
			}
		}

		// --- Compensation Code Engine: dispatch at most one entry. ---
		if head < len(t.ccb) {
			e := &t.ccb[head]
			if resolved(e.predSet, cycle) {
				if !e.recompute {
					// Flush (bit already cleared by verification).
					if e.bitLive {
						scheduleClear(cycle, cycle+1, 1<<uint(e.bit))
						e.bitLive = false
					}
					if sink != nil {
						t.emit(&obs.Event{Cycle: int64(cycle), Engine: obs.EngineCCE,
							Kind: obs.KindCCEFlush, Op: an.Block.Ops[e.opIdx], Bit: -1})
					}
					res.CCEFlushed++
					if cycle > res.DrainCycle {
						res.DrainCycle = cycle
					}
					head++
					live--
				} else if operandsReady(e, cycle) {
					op := an.Block.Ops[e.opIdx]
					lat := t.D.Latency(op)
					e.doneAt = cycle + lat
					valueReady[e.opIdx] = e.doneAt
					scheduleClear(cycle, e.doneAt, 1<<uint(e.bit))
					e.bitLive = false
					if sink != nil {
						t.emit(&obs.Event{Cycle: int64(cycle), Engine: obs.EngineCCE,
							Kind: obs.KindCCEExecute, Op: op, Bit: e.bit, Done: int64(e.doneAt)})
					}
					res.CCEExecuted++
					if e.doneAt > res.DrainCycle {
						res.DrainCycle = e.doneAt
					}
					head++
					live--
				}
			}
		}

		if instr >= len(bs.Instrs) && head >= len(t.ccb) && syncBusy == 0 && t.clearPending == 0 {
			break
		}
	}
	res.Length = lastIssue + 1
	return res, nil
}

// operandSiteStates renders a speculative op's operand states in the
// paper's Table 1/2 notation (see obs.OperandState): only built when a
// sink is attached.
func (t *Timing) operandSiteStates(an *BlockAnalysis, idx int, resolveAt []int, outcome uint32, cycle int) []obs.SiteState {
	set := an.Info[idx].PredSet
	if set == 0 {
		return nil
	}
	out := t.operands[:0]
	for li := range an.Sites {
		if set&(1<<uint(li)) == 0 {
			continue
		}
		state := obs.StateRN
		if resolveAt[li] >= 0 && cycle >= resolveAt[li] {
			if outcome&(1<<uint(li)) != 0 {
				state = obs.StateC
			} else {
				state = obs.StateR
			}
		}
		out = append(out, obs.SiteState{Site: li, State: state})
	}
	t.operands = out
	return out
}

// emit hands the sink a copy of e in the reused event buffer.
func (t *Timing) emit(e *obs.Event) {
	t.ev = *e
	t.Sink.Event(&t.ev)
}
