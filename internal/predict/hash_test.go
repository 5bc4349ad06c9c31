package predict

import (
	"math/rand"
	"reflect"
	"testing"
)

// The reference hashes below are the byte-by-byte FNV-1a loops the hashed
// predictors ran on every Predict and Update before their table keys were
// memoized. Every vtage/tage cycle count and golden fixture depends on the
// index function, so the memoized keys must equal these bit for bit.

func refFNV(vals ...uint64) uint64 {
	var h uint64 = 14695981039346656037
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// refVTAGEHash folds the site ID and the histLen most recent values.
func refVTAGEHash(s *VTAGESite, histLen int) (idx uint64, tag uint16) {
	vals := []uint64{uint64(s.id)}
	for i := 0; i < histLen; i++ {
		vals = append(vals, s.hist[((s.head-1-i)%vtageMaxHist+vtageMaxHist)%vtageMaxHist])
	}
	h := refFNV(vals...)
	return h & s.t.mask, uint16(h>>32) & vtageTagMask
}

// refFCMHash folds the full history, oldest first.
func refFCMHash(p *FCM) uint64 { return refFNV(p.history...) & p.mask }

// refBranchHash folds the PC and histLen bits of global history.
func refBranchHash(p *BranchPredictor, pc uint64, histLen int) (idx uint64, tag uint16) {
	h := refFNV(pc, p.ghr&(uint64(1)<<uint(histLen)-1))
	return h & p.compMask, uint16(h>>32) & btageTagMask
}

// checkVTAGEKeys compares a site's memoized keys with the reference for
// every component whose history is filled.
func checkVTAGEKeys(t *testing.T, step int, s *VTAGESite) {
	t.Helper()
	keys := s.componentKeys()
	for ci, l := range vtageHistLens {
		if s.n < l {
			continue
		}
		idx, tag := refVTAGEHash(s, l)
		if keys[ci].idx != idx || keys[ci].tag != tag {
			t.Fatalf("step %d site %d comp %d (n=%d): key (%d,%#x), reference (%d,%#x)",
				step, s.id, ci, s.n, keys[ci].idx, keys[ci].tag, idx, tag)
		}
	}
}

// TestVTAGEKeysMatchReference drives sibling sites of one shared table
// through seeded random streams — warm-up (n < 8), Reset mid-stream, and
// Predict/Update in unpaired orders — and checks after every call that the
// memoized keys equal the reference hash. A twin table whose sites drop
// their memo before every call (the pre-memo behaviour) must make the same
// predictions and end in the same table state.
func TestVTAGEKeysMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		tab, twin := NewVTAGE(5), NewVTAGE(5)
		const nSites = 4
		var sites, twins [nSites]*VTAGESite
		for i := range sites {
			sites[i], twins[i] = tab.Site(i*7+1), twin.Site(i*7+1)
		}
		for step := 0; step < 4000; step++ {
			i := r.Intn(nSites)
			s, w := sites[i], twins[i]
			w.keysOK = false
			switch op := r.Intn(100); {
			case op < 2:
				s.Reset()
				w.Reset()
			case op < 40:
				v, ok := s.Predict()
				wv, wok := w.Predict()
				if v != wv || ok != wok {
					t.Fatalf("seed %d step %d: Predict (%d,%v), twin (%d,%v)", seed, step, v, ok, wv, wok)
				}
			default:
				// A small alphabet with periodic structure makes the
				// components hit, miss and allocate.
				v := uint64(r.Intn(5))
				if r.Intn(3) > 0 {
					v = uint64(step % 3)
				}
				s.Update(v)
				w.Update(v)
			}
			checkVTAGEKeys(t, step, s)
		}
		if !reflect.DeepEqual(tab.comps, twin.comps) {
			t.Fatalf("seed %d: shared table diverged from the no-memo twin", seed)
		}
	}
}

// TestFCMKeyMatchesReference checks the memoized FCM index against the
// reference over orders 1–4, random streams and mid-stream Resets, and
// that the predictions equal a twin that drops its memo before every
// call.
func TestFCMKeyMatchesReference(t *testing.T) {
	for order := 1; order <= 4; order++ {
		r := rand.New(rand.NewSource(int64(order)))
		p, twin := NewFCM(order, 6), NewFCM(order, 6)
		for step := 0; step < 3000; step++ {
			twin.keyOK = false
			switch op := r.Intn(100); {
			case op < 2:
				p.Reset()
				twin.Reset()
			case op < 40:
				v, ok := p.Predict()
				wv, wok := twin.Predict()
				if v != wv || ok != wok {
					t.Fatalf("order %d step %d: Predict (%d,%v), twin (%d,%v)", order, step, v, ok, wv, wok)
				}
			default:
				v := uint64(r.Intn(6))
				p.Update(v)
				twin.Update(v)
			}
			if len(p.history) == order {
				if got, want := p.hash(), refFCMHash(p); got != want {
					t.Fatalf("order %d step %d: key %d, reference %d", order, step, got, want)
				}
			}
		}
		if !reflect.DeepEqual(p.table, twin.table) {
			t.Fatalf("order %d: table diverged from the no-memo twin", order)
		}
	}
}

// TestBranchKeysMatchReference checks the memoized TAGE keys against the
// reference before every Predict and Update, over paired Predict/Update
// calls and unpaired ones (an Update with no Predict, or for another PC),
// and that the whole predictor matches a twin that drops its memo before
// every call.
func TestBranchKeysMatchReference(t *testing.T) {
	for _, spec := range []string{"tage", "tage:hist=64,tables=8,bits=4", "tage:hist=5,tables=3,bits=2"} {
		c, err := ParseBranch(spec)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(len(spec))))
		p, twin := NewBranchPredictor(c), NewBranchPredictor(c)
		check := func(step int, pc uint64) {
			t.Helper()
			keys := p.componentKeys(pc)
			for ci, l := range p.histLens {
				idx, tag := refBranchHash(p, pc, l)
				if keys[ci].idx != idx || keys[ci].tag != tag {
					t.Fatalf("%s step %d comp %d: key (%d,%#x), reference (%d,%#x)",
						spec, step, ci, keys[ci].idx, keys[ci].tag, idx, tag)
				}
			}
		}
		pcs := []uint64{0x1234, 0xdeadbeef, 7, 1 << 40}
		for step := 0; step < 5000; step++ {
			pc := pcs[r.Intn(len(pcs))]
			taken := r.Intn(4) > 0 || step%5 == 0
			twin.keysOK = false
			switch op := r.Intn(10); {
			case op == 0:
				p.Reset()
				twin.Reset()
			case op < 3: // unpaired: Update without a Predict for this pc
				check(step, pc)
				p.Update(pc, taken)
				twin.Update(pc, taken)
			default: // paired
				check(step, pc)
				if got, want := p.Predict(pc), twin.Predict(pc); got != want {
					t.Fatalf("%s step %d: Predict %v, twin %v", spec, step, got, want)
				}
				twin.keysOK = false
				check(step, pc)
				p.Update(pc, taken)
				twin.Update(pc, taken)
			}
		}
		if !reflect.DeepEqual(p.comps, twin.comps) || !reflect.DeepEqual(p.base, twin.base) || p.ghr != twin.ghr {
			t.Fatalf("%s: tables diverged from the no-memo twin", spec)
		}
	}
}
