package predict

// DefaultLNVDepth is the last-n-value ring depth used when a config leaves
// it unset.
const DefaultLNVDepth = 4

// LastN is the last-n-value predictor: it remembers the most recent N
// values of the sequence and predicts the most frequent one, breaking ties
// toward the most recently observed. Depth 1 degenerates to last-value;
// larger depths ride out short excursions in mostly-constant streams
// (e.g. a pointer that alternates between two arenas) that would thrash a
// pure last-value predictor.
type LastN struct {
	depth int
	ring  []uint64
	n     int // values stored, <= depth
	head  int // next write slot
}

// NewLastN returns a cold last-n-value predictor; depth < 1 is clamped
// to 1.
func NewLastN(depth int) *LastN {
	if depth < 1 {
		depth = 1
	}
	return &LastN{depth: depth, ring: make([]uint64, depth)}
}

// Predict implements Predictor: the modal value of the ring, ties broken
// toward recency. Quadratic in depth, which is small by construction.
// Candidates are visited newest first; the stored values always occupy
// ring[:n] (the ring fills from slot 0), so counting scans that prefix.
func (p *LastN) Predict() (uint64, bool) {
	if p.n == 0 {
		return 0, false
	}
	stored := p.ring[:p.n]
	var best uint64
	bestCount := 0
	i := p.head
	for range stored {
		if i == 0 {
			i = len(p.ring)
		}
		i--
		v := p.ring[i]
		count := 0
		for _, w := range stored {
			if w == v {
				count++
			}
		}
		// Strict > keeps the earliest (most recent) candidate on ties.
		if count > bestCount {
			best, bestCount = v, count
		}
	}
	return best, true
}

// Update implements Predictor.
func (p *LastN) Update(actual uint64) {
	p.ring[p.head] = actual
	if p.head++; p.head == p.depth {
		p.head = 0
	}
	if p.n < p.depth {
		p.n++
	}
}

// Name implements Predictor.
func (p *LastN) Name() string { return "lnv" }

// Reset implements Predictor. The ring is retained (no allocation).
func (p *LastN) Reset() { p.n, p.head = 0, 0 }
