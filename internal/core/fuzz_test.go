package core_test

// FuzzDecodeImage: the decoder's robustness contract. For any program —
// progen-rendered, speculated or not — and any byte-driven corruption of
// its schedule, DecodeImage must either refuse with the typed *DecodeError
// (naming the function, block, and op) or return an image that passes
// Validate: never a panic, never an out-of-range dense ID. A deterministic
// sweep (TestDecodeImageMutations) runs a slice of the same corpus under
// plain `go test`; CI gives the fuzzer a pinned budget in the oracle job.

import (
	"errors"
	"testing"

	"vliwvp/internal/core"
	"vliwvp/internal/ddg"
	"vliwvp/internal/ir"
	"vliwvp/internal/lang"
	"vliwvp/internal/machine"
	"vliwvp/internal/opt"
	"vliwvp/internal/profile"
	"vliwvp/internal/progen"
	"vliwvp/internal/sched"
	"vliwvp/internal/speculate"
)

// fuzzBuild compiles a generated program (speculated when spec is set)
// and list-schedules it. Returns nil on any front-end failure — the
// fuzzer only cares about decode.
func fuzzBuild(seed int64, spec bool, d *machine.Desc) (*ir.Program, *sched.ProgSched) {
	src := progen.Render(progen.Generate(seed, progen.Options{}))
	prog, err := lang.Compile(src)
	if err != nil {
		return nil, nil
	}
	opt.Optimize(prog)
	if spec {
		prof, err := profile.Collect(prog, "main")
		if err != nil {
			return nil, nil
		}
		res, err := speculate.Transform(prog, prof, speculate.DefaultConfig(d))
		if err != nil {
			return nil, nil
		}
		prog = res.Prog
	}
	ps := &sched.ProgSched{Prog: prog, Funcs: map[string]*sched.FuncSched{}}
	for _, f := range prog.Funcs {
		fs := &sched.FuncSched{F: f, Blocks: make([]*sched.BlockSched, len(f.Blocks))}
		for i, b := range f.Blocks {
			g := speculate.BuildGraph(b, d, ddg.Options{})
			fs.Blocks[i] = sched.ScheduleBlock(b, g, d)
		}
		ps.Funcs[f.Name] = fs
	}
	return prog, ps
}

// mutateSched applies one byte-driven corruption per input pair to the
// schedule in place: dropped or duplicated ops, swapped instructions,
// cross-block op leakage, truncated or deleted block schedules, wait-bit
// garbage — the malformed inputs decode validation exists for.
func mutateSched(ps *sched.ProgSched, raw []byte) {
	var blocks []*sched.BlockSched
	for _, fs := range ps.Funcs {
		blocks = append(blocks, fs.Blocks...)
	}
	if len(blocks) == 0 {
		return
	}
	for i := 0; i+1 < len(raw); i += 2 {
		sel, arg := raw[i], int(raw[i+1])
		bs := blocks[arg%len(blocks)]
		if bs == nil || len(bs.Instrs) == 0 {
			continue
		}
		in := &bs.Instrs[arg%len(bs.Instrs)]
		switch sel % 8 {
		case 0: // drop one op from an instruction
			if len(in.Ops) > 0 {
				in.Ops = in.Ops[:len(in.Ops)-1]
			}
		case 1: // duplicate an op within an instruction
			if len(in.Ops) > 0 {
				in.Ops = append(in.Ops, in.Ops[arg%len(in.Ops)])
			}
		case 2: // swap two instructions
			j, k := arg%len(bs.Instrs), (arg+1)%len(bs.Instrs)
			bs.Instrs[j], bs.Instrs[k] = bs.Instrs[k], bs.Instrs[j]
		case 3: // leak an op from another block's schedule
			other := blocks[(arg+1)%len(blocks)]
			if other != nil && other != bs && len(other.Instrs) > 0 {
				oin := other.Instrs[arg%len(other.Instrs)]
				if len(oin.Ops) > 0 {
					in.Ops = append(in.Ops, oin.Ops[arg%len(oin.Ops)])
				}
			}
		case 4: // truncate the block schedule
			bs.Instrs = bs.Instrs[:arg%len(bs.Instrs)]
		case 5: // scramble wait bits
			in.WaitBits ^= uint64(arg)<<32 | uint64(arg)
		case 6: // delete a whole function schedule
			for name := range ps.Funcs {
				delete(ps.Funcs, name)
				break
			}
		case 7: // nil out one block schedule
			for _, fs := range ps.Funcs {
				if len(fs.Blocks) > 0 {
					fs.Blocks[arg%len(fs.Blocks)] = nil
					break
				}
			}
		}
	}
}

// checkDecode asserts the contract on one (program, schedule) pair.
func checkDecode(t *testing.T, prog *ir.Program, ps *sched.ProgSched, d *machine.Desc) {
	t.Helper()
	img, err := core.DecodeImage(prog, ps, d)
	if err != nil {
		var de *core.DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("DecodeImage returned an untyped error: %v", err)
		}
		if de.Msg == "" {
			t.Fatalf("DecodeError without a message: %+v", de)
		}
		return
	}
	if img == nil {
		t.Fatal("DecodeImage returned neither image nor error")
	}
	if err := img.Validate(); err != nil {
		t.Fatalf("accepted image fails validation: %v", err)
	}
}

func FuzzDecodeImage(f *testing.F) {
	f.Add(int64(1), true, []byte(nil))
	f.Add(int64(2), false, []byte{0, 0})
	f.Add(int64(3), true, []byte{1, 3, 2, 0})
	f.Add(int64(7), true, []byte{3, 1, 4, 1, 5, 9})
	f.Add(int64(11), false, []byte{6, 0})
	f.Add(int64(13), true, []byte{7, 2, 0, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, seed int64, spec bool, raw []byte) {
		prog, ps := fuzzBuild(seed%4096, spec, machine.W4)
		if prog == nil {
			t.Skip("front end rejected the generated program")
		}
		mutateSched(ps, raw)
		checkDecode(t, prog, ps, machine.W4)
	})
}

// TestDecodeImageMutations is the deterministic slice of the fuzz corpus:
// every mutation selector applied across a handful of seeds, plus the
// pristine (unmutated) decode, run on every `go test`.
func TestDecodeImageMutations(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, spec := range []bool{false, true} {
			prog, ps := fuzzBuild(seed, spec, machine.W4)
			if prog == nil {
				t.Fatalf("seed %d: front end rejected a progen program", seed)
			}
			checkDecode(t, prog, ps, machine.W4)
			for sel := byte(0); sel < 8; sel++ {
				prog, ps := fuzzBuild(seed, spec, machine.W4)
				mutateSched(ps, []byte{sel, byte(seed), sel, byte(seed + 3)})
				checkDecode(t, prog, ps, machine.W4)
			}
		}
	}
}
