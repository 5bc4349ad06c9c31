package profile

import (
	"math/rand"
	"testing"

	"vliwvp/internal/predict"
)

// refMeters is the zoo as Collect metered it before hybrid was derived:
// one predict.RateMeter per scheme, hybrid on its own predict.Hybrid.
type refMeters [len(zooOrder)]predict.RateMeter

func newRefMeters() *refMeters {
	var r refMeters
	r[SchemeStride].P = predict.NewStride()
	r[SchemeFCM].P = predict.NewFCM(predict.DefaultFCMOrder, predict.DefaultFCMTableBits)
	r[SchemeLast].P = predict.NewLastValue()
	r[SchemeLNV].P = predict.NewLastN(predict.DefaultLNVDepth)
	r[SchemeVTAGE].P = predict.NewVTAGE(predict.DefaultVTAGEBits).Site(0)
	r[SchemeHybrid].P = predict.NewHybrid(predict.DefaultFCMOrder, predict.DefaultFCMTableBits)
	return &r
}

func (r *refMeters) observe(v uint64) {
	for i := range r {
		r[i].Observe(v)
	}
}

// TestDerivedHybridMatchesRateMeter feeds seeded random streams — mixes of
// constant, strided, periodic and random runs, so the stride/FCM
// tournament changes hands — through siteMeters and through one
// predict.RateMeter per scheme, and requires every rate, the derived
// hybrid's included, to be bit-equal after every observation.
func TestDerivedHybridMatchesRateMeter(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		m, ref := newSiteMeters(nil), newRefMeters()
		var v uint64
		stride := uint64(r.Intn(5))
		for i := 0; i < 2000; i++ {
			switch mode := (i / (50 + r.Intn(100))) % 4; mode {
			case 0:
				v += stride
			case 1:
				v = uint64(i % 3)
			case 2:
				v = uint64(r.Intn(4))
			default:
				// hold v: a constant run
			}
			m.observe(v)
			ref.observe(v)
			for _, s := range zooOrder {
				if got, want := m.rate(s), ref[s].Rate(); got != want {
					t.Fatalf("seed %d obs %d: %v rate %v, RateMeter %v", seed, i, s, got, want)
				}
			}
		}
		if m.total != ref[SchemeStride].Total {
			t.Fatalf("seed %d: total %d, RateMeter %d", seed, m.total, ref[SchemeStride].Total)
		}
	}
}
