package core

import (
	"strings"
	"testing"

	"vliwvp/internal/ir"
	"vliwvp/internal/machine"
)

// TestDecodeResolvesLea pins the decode-time resolution of Lea: every Lea
// of a known global carries its address in the image, so the engine never
// looks the global up by name. A Lea left unresolved falls back to
// interp.ExecOp, which still reports an unknown global when it executes.
func TestDecodeResolvesLea(t *testing.T) {
	img, schemes := decodeKernel(t, machine.W4)
	var leas []*imgOp
	for _, fn := range img.funcs {
		for bi := range fn.blocks {
			for i := range fn.blocks[bi].ops {
				if o := &fn.blocks[bi].ops[i]; o.op.Code == ir.Lea {
					leas = append(leas, o)
				}
			}
		}
	}
	if len(leas) == 0 {
		t.Fatal("kernel decodes no Lea")
	}
	for _, o := range leas {
		g := img.Prog.Global(o.op.Sym)
		if !o.leaOK || o.leaAddr != uint64(int64(g.Addr)+o.op.Imm) {
			t.Errorf("Lea %v: resolved (%d, %v), want address %d", o.op, o.leaAddr, o.leaOK, int64(g.Addr)+o.op.Imm)
		}
	}
	if _, err := NewSimulatorFromImage(img, schemes).Run("main"); err != nil {
		t.Fatalf("Run: %v", err)
	}

	// The fallback: an unresolved Lea of an unknown global is a run-time
	// error, exactly as in the interpreter.
	for _, o := range leas {
		o.leaOK = false
		o.op.Sym = "no_such_global"
	}
	_, err := NewSimulatorFromImage(img, schemes).Run("main")
	if err == nil || !strings.Contains(err.Error(), "lea of unknown global") {
		t.Fatalf("unresolved Lea of an unknown global: err = %v", err)
	}
}
