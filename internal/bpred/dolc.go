// DOLC path hashing (Depth, Older, Last, Current), the path-history index
// function of the multiscalar control-flow speculation work (Jacobson et
// al.), used by both the next stream predictor (12-2-4-10 per Table 2) and
// the next trace predictor (9-4-7-9).
package bpred

// DOLC describes a path hash: Depth previous addresses contribute Older bits
// each, except the most recent which contributes Last bits; the current
// address contributes Current bits. The concatenation is XOR-folded to the
// requested index width.
type DOLC struct {
	Depth   int
	Older   uint
	Last    uint
	Current uint
}

// PathHist is a ring of the most recent path elements (newest first is
// logical order; stored as a ring). Beside each raw element it keeps the
// element's DOLC mix (dolcMix of the element's word address), so Hash
// only masks and chains.
type PathHist struct {
	ring []uint64
	mix  []uint64
	pos  int
}

// NewPathHist returns a path history holding depth elements.
func NewPathHist(depth int) *PathHist {
	if depth <= 0 {
		depth = 1
	}
	// Zero elements mix to zero.
	return &PathHist{ring: make([]uint64, depth), mix: make([]uint64, depth)}
}

// Push records a new path element (e.g. a stream start address).
func (p *PathHist) Push(v uint64) {
	p.pos++
	if p.pos == len(p.ring) {
		p.pos = 0
	}
	p.ring[p.pos] = v
	p.mix[p.pos] = dolcMix(v >> 2)
}

// At returns the i-th most recent element (0 = newest), 0 <= i < Len().
func (p *PathHist) At(i int) uint64 {
	j := p.pos - i
	if j < 0 {
		j += len(p.ring)
	}
	return p.ring[j]
}

// Len returns the history depth.
func (p *PathHist) Len() int { return len(p.ring) }

// CopyFrom overwrites p with src (misprediction recovery).
func (p *PathHist) CopyFrom(src *PathHist) {
	copy(p.ring, src.ring)
	copy(p.mix, src.mix)
	p.pos = src.pos
}

// Clone returns an independent copy.
func (p *PathHist) Clone() *PathHist {
	q := &PathHist{ring: make([]uint64, len(p.ring)), mix: make([]uint64, len(p.mix)), pos: p.pos}
	q.CopyFrom(p)
	return q
}

// dolcMix spreads a word address's entropy across all 64 bits before its
// DOLC bit quota is extracted.
func dolcMix(v uint64) uint64 {
	v *= 0x9e3779b97f4a7c15
	return v ^ v>>29
}

// Hash folds the path history and current address into an index of
// indexBits bits. Each element is mixed before its DOLC bit quota is
// extracted, and contributions are chained order-sensitively; hardware
// selects raw low bits instead, which works because real addresses carry
// low-bit entropy — the mixed version behaves identically for well-spread
// addresses and avoids pathological collisions on aligned ones.
func (d DOLC) Hash(hist *PathHist, current uint64, indexBits uint) uint64 {
	const prime = 0x100000001b3 // order-sensitive chaining
	acc := (0xcbf29ce484222325 ^ dolcMix(current>>2)&(1<<d.Current-1)) * prime
	depth := min(d.Depth, len(hist.mix))
	if depth > 0 {
		mix, i := hist.mix, hist.pos
		acc = (acc ^ mix[i]&(1<<d.Last-1)) * prime
		older := uint64(1)<<d.Older - 1
		for k := 1; k < depth; k++ {
			if i == 0 {
				i = len(mix)
			}
			i--
			acc = (acc ^ mix[i]&older) * prime
		}
	}
	// Fold to the index width.
	mask := uint64(1)<<indexBits - 1
	out := acc & mask
	acc >>= indexBits
	for acc != 0 {
		out ^= acc & mask
		acc >>= indexBits
	}
	return out
}
