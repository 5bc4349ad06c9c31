// Package predict implements the value predictors the paper profiles with:
// last-value, stride (two-delta), and finite-context-method (FCM, two-level)
// predictors, plus the hybrid selector the paper uses ("the final value
// prediction rate for each operation ... was chosen to be the higher value
// out of these two prediction rates", §3).
//
// The same implementations serve two roles: per-site instances measure
// profiled predictability of load-value sequences, and table-backed
// instances act as the hardware value predictor in the dynamic dual-engine
// simulation.
package predict

// Predictor produces a prediction for the next value in a sequence and is
// then trained with the actual outcome.
type Predictor interface {
	// Predict returns the predicted next value. ok is false when the
	// predictor has no basis yet (cold start); hardware would still supply
	// the value (and usually mispredict), so accounting treats !ok as a
	// miss.
	Predict() (value uint64, ok bool)
	// Update trains the predictor with the actual value.
	Update(actual uint64)
	// Name identifies the scheme.
	Name() string
	// Reset returns the predictor to its cold state.
	Reset()
}

// LastValue predicts the previous value.
type LastValue struct {
	last uint64
	seen bool
}

// NewLastValue returns a cold last-value predictor.
func NewLastValue() *LastValue { return &LastValue{} }

// Predict implements Predictor.
func (p *LastValue) Predict() (uint64, bool) { return p.last, p.seen }

// Update implements Predictor.
func (p *LastValue) Update(actual uint64) { p.last, p.seen = actual, true }

// Name implements Predictor.
func (p *LastValue) Name() string { return "last" }

// Reset implements Predictor.
func (p *LastValue) Reset() { *p = LastValue{} }

// Stride is the classic two-delta stride predictor: the stride is committed
// only when the same delta is observed twice in a row, which keeps one-off
// jumps from destroying a stable stride.
type Stride struct {
	last      uint64
	stride    uint64
	lastDelta uint64
	count     int // values seen
}

// NewStride returns a cold two-delta stride predictor.
func NewStride() *Stride { return &Stride{} }

// Predict implements Predictor.
func (p *Stride) Predict() (uint64, bool) {
	if p.count == 0 {
		return 0, false
	}
	return p.last + p.stride, true
}

// Update implements Predictor.
func (p *Stride) Update(actual uint64) {
	if p.count > 0 {
		delta := actual - p.last
		if delta == p.lastDelta {
			p.stride = delta
		}
		p.lastDelta = delta
	}
	p.last = actual
	p.count++
}

// Name implements Predictor.
func (p *Stride) Name() string { return "stride" }

// Reset implements Predictor.
func (p *Stride) Reset() { *p = Stride{} }

// FCM is an order-N finite context method predictor: a value history
// register is hashed into a prediction table whose entries hold the value
// that followed that context last time.
type FCM struct {
	order   int
	mask    uint64
	history []uint64
	table   []fcmEntry
	name    string
	// key memoizes hash() for the current history; keyOK is cleared
	// whenever the history moves (Update, Reset).
	key   uint64
	keyOK bool
}

type fcmEntry struct {
	value uint64
	valid bool
}

// DefaultFCMOrder is the context depth used by the profiling runs.
const DefaultFCMOrder = 2

// DefaultFCMTableBits sizes the profiling FCM tables (2^bits entries).
const DefaultFCMTableBits = 12

// NewFCM returns a cold FCM predictor with 2^tableBits entries.
func NewFCM(order, tableBits int) *FCM {
	if order < 1 {
		order = 1
	}
	if tableBits < 2 {
		tableBits = 2
	}
	return &FCM{
		order:   order,
		mask:    (1 << tableBits) - 1,
		history: make([]uint64, 0, order),
		table:   make([]fcmEntry, 1<<tableBits),
		name:    "fcm",
	}
}

// FNV-1a parameters shared by every hashed predictor table.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix folds the 8 bytes of v, low byte first, into the FNV-1a state h.
func fnvMix(h, v uint64) uint64 {
	h = (h ^ v&0xff) * fnvPrime
	h = (h ^ v>>8&0xff) * fnvPrime
	h = (h ^ v>>16&0xff) * fnvPrime
	h = (h ^ v>>24&0xff) * fnvPrime
	h = (h ^ v>>32&0xff) * fnvPrime
	h = (h ^ v>>40&0xff) * fnvPrime
	h = (h ^ v>>48&0xff) * fnvPrime
	return (h ^ v>>56) * fnvPrime
}

// tableKey is a tagged predictor table's (index, partial tag) pair for
// one component, as its hash of the history selects it.
type tableKey struct {
	idx uint64
	tag uint16
}

// hash returns the table index of the current (full) history, oldest
// value first.
func (p *FCM) hash() uint64 {
	if !p.keyOK {
		h := uint64(fnvOffset)
		for _, v := range p.history {
			h = fnvMix(h, v)
		}
		p.key, p.keyOK = h&p.mask, true
	}
	return p.key
}

// Predict implements Predictor.
func (p *FCM) Predict() (uint64, bool) {
	if len(p.history) < p.order {
		return 0, false
	}
	e := p.table[p.hash()]
	return e.value, e.valid
}

// Update implements Predictor.
func (p *FCM) Update(actual uint64) {
	if len(p.history) == p.order {
		idx := p.hash()
		p.table[idx] = fcmEntry{value: actual, valid: true}
		copy(p.history, p.history[1:])
		p.history[p.order-1] = actual
		p.keyOK = false
		return
	}
	p.history = append(p.history, actual)
	p.keyOK = false
}

// Name implements Predictor.
func (p *FCM) Name() string { return p.name }

// Reset implements Predictor.
func (p *FCM) Reset() {
	p.history = p.history[:0]
	p.keyOK = false
	for i := range p.table {
		p.table[i] = fcmEntry{}
	}
}

// Hybrid runs a stride and an FCM predictor side by side and predicts with
// whichever has the higher running hit count, mirroring the paper's
// max(stride, FCM) profile selection as a runtime tournament.
type Hybrid struct {
	stride *Stride
	fcm    *FCM
	sHits  int
	fHits  int
}

// NewHybrid returns a cold hybrid predictor.
func NewHybrid(order, tableBits int) *Hybrid {
	return &Hybrid{stride: NewStride(), fcm: NewFCM(order, tableBits)}
}

// Predict implements Predictor.
func (p *Hybrid) Predict() (uint64, bool) {
	sv, sok := p.stride.Predict()
	fv, fok := p.fcm.Predict()
	return Tournament(sv, sok, fv, fok, p.sHits, p.fHits)
}

// Tournament is the hybrid's choice between a stride prediction (sv, sok)
// and an FCM prediction (fv, fok), given each component's running hit
// count: stride, unless only FCM predicts or FCM has strictly more hits.
func Tournament(sv uint64, sok bool, fv uint64, fok bool, sHits, fHits int) (uint64, bool) {
	switch {
	case sok && (!fok || sHits >= fHits):
		return sv, true
	case fok:
		return fv, true
	default:
		return 0, false
	}
}

// Update implements Predictor.
func (p *Hybrid) Update(actual uint64) {
	if v, ok := p.stride.Predict(); ok && v == actual {
		p.sHits++
	}
	if v, ok := p.fcm.Predict(); ok && v == actual {
		p.fHits++
	}
	p.stride.Update(actual)
	p.fcm.Update(actual)
}

// Name implements Predictor.
func (p *Hybrid) Name() string { return "hybrid" }

// Reset implements Predictor.
func (p *Hybrid) Reset() {
	p.stride.Reset()
	p.fcm.Reset()
	p.sHits, p.fHits = 0, 0
}

// Recorder wraps a predictor and logs every training value in Update
// order. The conformance harness records a site's dynamic value stream on
// one simulation, then replays it through a Replay predictor to model a
// perfect (oracle) value predictor on the next.
type Recorder struct {
	P   Predictor
	Log []uint64
}

// Predict implements Predictor.
func (r *Recorder) Predict() (uint64, bool) { return r.P.Predict() }

// Update implements Predictor.
func (r *Recorder) Update(actual uint64) {
	r.Log = append(r.Log, actual)
	r.P.Update(actual)
}

// Name implements Predictor.
func (r *Recorder) Name() string { return "record(" + r.P.Name() + ")" }

// Reset implements Predictor.
func (r *Recorder) Reset() {
	r.P.Reset()
	r.Log = nil
}

// Replay predicts a prerecorded value sequence — the conformance
// harness's perfect predictor. Unlike the trained predictors it advances
// on Predict, not Update: the in-order engine issues the i-th LdPred of a
// site before the (i-1)-th check has resolved (and trained), so aligning
// on prediction order is what makes every prediction correct.
type Replay struct {
	Seq []uint64
	i   int
}

// Predict implements Predictor. It consumes the next recorded value; an
// exhausted sequence reports cold (ok=false).
func (p *Replay) Predict() (uint64, bool) {
	if p.i >= len(p.Seq) {
		return 0, false
	}
	v := p.Seq[p.i]
	p.i++
	return v, true
}

// Update implements Predictor (no training; the sequence is the truth).
func (p *Replay) Update(actual uint64) {}

// Name implements Predictor.
func (p *Replay) Name() string { return "replay" }

// Reset implements Predictor.
func (p *Replay) Reset() { p.i = 0 }

// RateMeter measures a predictor's hit rate over a streamed value sequence.
type RateMeter struct {
	P     Predictor
	Hits  int
	Total int
}

// Observe feeds one value: score the current prediction, then train.
func (m *RateMeter) Observe(actual uint64) {
	if v, ok := m.P.Predict(); ok && v == actual {
		m.Hits++
	}
	m.Total++
	m.P.Update(actual)
}

// Rate returns the hit fraction observed so far (0 for an empty stream).
func (m *RateMeter) Rate() float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.Hits) / float64(m.Total)
}

// MeasureRate scores a predictor over a complete sequence.
func MeasureRate(p Predictor, seq []uint64) float64 {
	m := RateMeter{P: p}
	for _, v := range seq {
		m.Observe(v)
	}
	return m.Rate()
}
