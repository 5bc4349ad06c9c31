package main

// The output check. Every kernel's reference result — return value,
// output lines and dynamic step count — comes from the sequential
// interpreter during setup, outside the timed region. Every simulated
// cell and every served response is compared against it, and every
// repeat of a cell must reproduce the first run's simulated counters
// exactly. Any difference is a failed operation.

import (
	"fmt"
	"slices"
	"sync"

	"vliwvp/internal/core"
	"vliwvp/internal/interp"
	"vliwvp/internal/workload"
)

// ref is a kernel's interpreter result.
type ref struct {
	Value  uint64
	Output []string
	// Steps counts the operations the interpreter executed on the
	// front-end program — the program the profile pass interprets.
	Steps int64
}

// reference compiles b through the front end (lower + opt) and runs it on
// the interpreter.
func reference(b *workload.Benchmark, sc scope) (*ref, error) {
	cs := sc.span("setup.compile")
	prog, err := b.Compile()
	cs.done()
	if err != nil {
		return nil, err
	}
	is := sc.span("interp")
	m := interp.New(prog)
	v, err := m.RunMain()
	is.done()
	if err != nil {
		return nil, fmt.Errorf("%s: interp: %w", b.Name, err)
	}
	return &ref{Value: v, Output: m.Output, Steps: m.Steps}, nil
}

// simCounts are the simulated (not host) counters of one or more runs.
// They are deterministic: a repeat of a cell must reproduce them exactly.
type simCounts struct {
	Cycles, Instrs, Ops                       int64
	StallSync, StallScore, StallCCB, StallBar int64
	StallRecovery, StallRedirect, StallIFetch int64
	Predictions, Mispredicts, Suppressed      int64
	BranchPredicts, BranchMispredicts         int64
	CCEExecuted, CCEFlushed                   int64
	DHits, DMisses, PrefIssued, PrefUseful    int64
}

func countsOf(s *core.Simulator) simCounts {
	return simCounts{
		Cycles: s.Cycles, Instrs: s.Instrs, Ops: s.Ops,
		StallSync: s.StallSync, StallScore: s.StallScore, StallCCB: s.StallCCB, StallBar: s.StallBar,
		StallRecovery: s.StallRecovery, StallRedirect: s.StallRedirect, StallIFetch: s.StallIFetch,
		Predictions: s.Predictions, Mispredicts: s.Mispredicts, Suppressed: s.Suppressed,
		BranchPredicts: s.BranchPredicts, BranchMispredicts: s.BranchMispredicts,
		CCEExecuted: s.CCEExecuted, CCEFlushed: s.CCEFlushed,
		DHits: s.DHits, DMisses: s.DMisses, PrefIssued: s.PrefIssued, PrefUseful: s.PrefUseful,
	}
}

func (c *simCounts) add(o simCounts) {
	c.Cycles += o.Cycles
	c.Instrs += o.Instrs
	c.Ops += o.Ops
	c.StallSync += o.StallSync
	c.StallScore += o.StallScore
	c.StallCCB += o.StallCCB
	c.StallBar += o.StallBar
	c.StallRecovery += o.StallRecovery
	c.StallRedirect += o.StallRedirect
	c.StallIFetch += o.StallIFetch
	c.Predictions += o.Predictions
	c.Mispredicts += o.Mispredicts
	c.Suppressed += o.Suppressed
	c.BranchPredicts += o.BranchPredicts
	c.BranchMispredicts += o.BranchMispredicts
	c.CCEExecuted += o.CCEExecuted
	c.CCEFlushed += o.CCEFlushed
	c.DHits += o.DHits
	c.DMisses += o.DMisses
	c.PrefIssued += o.PrefIssued
	c.PrefUseful += o.PrefUseful
}

// maxMismatchMsgs bounds the mismatch descriptions a run keeps.
const maxMismatchMsgs = 10

// checker holds the references and the first-seen counters of every cell.
// It is safe for concurrent use (serve-mix clients share one).
type checker struct {
	refs map[string]*ref

	mu     sync.Mutex
	seen   map[string]simCounts
	failed int
	msgs   []string
}

func newChecker() *checker {
	return &checker{refs: map[string]*ref{}, seen: map[string]simCounts{}}
}

// addRef computes and stores b's reference (setup only; not concurrent).
func (c *checker) addRef(b *workload.Benchmark, sc scope) error {
	r, err := reference(b, sc)
	if err != nil {
		return err
	}
	c.refs[b.Name] = r
	return nil
}

// fail counts one failed operation.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.msgs) < maxMismatchMsgs {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// check compares one simulated run of kernel under the named cell
// configuration against the kernel's reference and the cell's first run.
// It reports whether the run passed; a failure is counted.
func (c *checker) check(kernel, cell string, value uint64, output []string, counts simCounts, err error) bool {
	if err != nil {
		c.fail("%s/%s: %v", kernel, cell, err)
		return false
	}
	r := c.refs[kernel]
	switch {
	case r == nil:
		c.fail("%s/%s: no reference", kernel, cell)
		return false
	case value != r.Value:
		c.fail("%s/%s: value %d, interpreter %d", kernel, cell, value, r.Value)
		return false
	case !slices.Equal(output, r.Output):
		c.fail("%s/%s: output %q, interpreter %q", kernel, cell, output, r.Output)
		return false
	}
	key := kernel + "|" + cell
	c.mu.Lock()
	first, ok := c.seen[key]
	if !ok {
		c.seen[key] = counts
	}
	c.mu.Unlock()
	if ok && first != counts {
		c.fail("%s/%s: simulated counters changed between repeats: %+v then %+v", kernel, cell, first, counts)
		return false
	}
	return true
}

// result reports the failures counted so far and their descriptions.
func (c *checker) result() (int, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed, slices.Clone(c.msgs)
}
