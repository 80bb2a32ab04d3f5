// Package core implements the paper's primary contribution: instruction
// streams and the cascaded next stream predictor (§3).
//
// An instruction stream is the run of sequential instructions from the
// target of a taken branch up to and including the next taken branch. A
// stream is fully identified by its start address and length: intermediate
// branches are implicitly predicted not taken and the terminator implicitly
// taken, so no per-branch state is needed. A partial stream starts at the
// target of a branch misprediction instead of a taken-branch target,
// preserving stream semantics after recovery.
//
// The next stream predictor is a two-table cascade. The first table is
// indexed by the current fetch address alone; the second by a DOLC hash of
// the previous stream start addresses (path correlation). On a double hit
// the path-correlated table wins. Entries carry a hysteresis counter used
// for replacement, which lets overlapping streams coexist. Streams enter
// both tables on first appearance; a stream that is mispredicted while only
// the address-indexed table holds it is upgraded into the path table, so
// streams that do not need path correlation never pollute it.
package core

import (
	"streamfetch/internal/bpred"
	"streamfetch/internal/isa"
)

// MaxStreamLen caps the stream length field (instructions). Longer
// sequential runs are split into back-to-back streams at fetch time.
const MaxStreamLen = 64

// Stream identifies one instruction stream.
type Stream struct {
	// Start is the stream's first instruction address.
	Start isa.Addr
	// Len is the instruction count, including the terminating branch.
	Len int
	// Type is the terminating branch type (BranchNone for a stream split
	// by the length cap, whose successor is sequential).
	Type isa.BranchType
	// Next is the start address of the following stream (the taken
	// target of the terminator, or the sequential continuation for a
	// capped stream).
	Next isa.Addr
}

// End returns the address one past the stream's last instruction.
func (s Stream) End() isa.Addr { return s.Start.Plus(s.Len) }

// PredictorConfig sizes the cascaded next stream predictor (Table 2
// defaults via DefaultPredictorConfig).
type PredictorConfig struct {
	// FirstEntries, FirstWays size the address-indexed table.
	FirstEntries, FirstWays int
	// SecondEntries, SecondWays size the path-indexed table.
	SecondEntries, SecondWays int
	// DOLC is the path hash shape.
	DOLC bpred.DOLC
	// NoUpgrade disables upgrading mispredicted streams into the path
	// table (ablation knob; the paper's design upgrades).
	NoUpgrade bool
	// NoCascade disables the path-indexed table entirely (ablation knob).
	NoCascade bool
	// AlwaysPathPriority makes a path-table hit always win over the
	// address table (the paper's stated policy). The default arbitrates
	// by hysteresis confidence, which filters freshly upgraded streams
	// that turn out not to be path-predictable.
	AlwaysPathPriority bool
}

// DefaultPredictorConfig returns the paper's Table-2 configuration:
// first table 1K-entry 4-way, second table 6K-entry 3-way, DOLC 12-2-4-10.
func DefaultPredictorConfig() PredictorConfig {
	return PredictorConfig{
		FirstEntries: 1 << 10, FirstWays: 4,
		SecondEntries: 6 << 10, SecondWays: 3,
		DOLC: bpred.DOLC{Depth: 12, Older: 2, Last: 4, Current: 10},
	}
}

type streamEntry struct {
	valid bool
	tag   uint64
	len   uint8
	typ   isa.BranchType
	next  isa.Addr
	ctr   bpred.TwoBit // hysteresis / confidence counter
	stamp uint64       // LRU stamp for victim selection
}

// matches reports whether the entry stores the same stream body.
func (e *streamEntry) matches(s Stream) bool {
	return int(e.len) == s.Len && e.next == s.Next && e.typ == s.Type
}

type streamTable struct {
	sets    [][]streamEntry
	setBits uint
	clock   uint64
}

func newStreamTable(entries, ways int) *streamTable {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("core: bad stream table geometry")
	}
	nsets := entries / ways
	if nsets&(nsets-1) != 0 {
		panic("core: stream table set count must be a power of two")
	}
	t := &streamTable{sets: make([][]streamEntry, nsets)}
	for i := range t.sets {
		t.sets[i] = make([]streamEntry, ways)
	}
	for b := nsets; b > 1; b >>= 1 {
		t.setBits++
	}
	return t
}

func (t *streamTable) lookup(idx, tag uint64) *streamEntry {
	for i := range t.sets[idx] {
		e := &t.sets[idx][i]
		if e.valid && e.tag == tag {
			t.clock++
			e.stamp = t.clock
			return e
		}
	}
	return nil
}

// update applies the hysteresis replacement policy (§3.2): a matching entry
// strengthens its counter; a divergent entry weakens it and is replaced once
// the counter reaches zero. insertOnMiss controls whether a missing stream
// may claim a way at all (the cascade's second table only admits first
// appearances and mispredicted streams).
func (t *streamTable) update(idx, tag uint64, s Stream, insertOnMiss bool) {
	set := t.sets[idx]
	if e := t.lookup(idx, tag); e != nil {
		if e.matches(s) {
			// Re-saturate on every confirmation (like 2bcgskew's
			// partial update): an established stream only yields its
			// entry after several *consecutive* contradictions, so
			// Bernoulli noise cannot flip-flop the entry.
			e.ctr = 3
		} else {
			if e.ctr > 0 {
				e.ctr--
			}
			if e.ctr == 0 {
				e.len = uint8(s.Len)
				e.typ = s.Type
				e.next = s.Next
				e.ctr = 1
			}
		}
		return
	}
	if !insertOnMiss {
		return
	}
	// Victim selection: an invalid way, otherwise least-recently used.
	// The hysteresis counter arbitrates between *versions of the same
	// stream* (overlapping lengths share a tag); cross-stream set
	// contention uses plain LRU so hot new streams always enter.
	t.clock++
	v := 0
	for i := range set {
		if !set[i].valid {
			v = i
			break
		}
		if set[i].stamp < set[v].stamp {
			v = i
		}
	}
	set[v] = streamEntry{
		valid: true,
		tag:   tag,
		len:   uint8(s.Len),
		typ:   s.Type,
		next:  s.Next,
		ctr:   1,
		stamp: t.clock,
	}
}

// Predictor is the cascaded next stream predictor.
type Predictor struct {
	cfg PredictorConfig
	t1  *streamTable
	t2  *streamTable

	// SpecPath and RetPath are the lookup and update path history
	// registers (§3.2): SpecPath is updated with each prediction,
	// RetPath at commit; Recover copies RetPath over SpecPath.
	SpecPath *bpred.PathHist
	RetPath  *bpred.PathHist

	// stats
	lookups, hits uint64
}

// NewPredictor builds the predictor.
func NewPredictor(cfg PredictorConfig) *Predictor {
	return &Predictor{
		cfg:      cfg,
		t1:       newStreamTable(cfg.FirstEntries, cfg.FirstWays),
		t2:       newStreamTable(cfg.SecondEntries, cfg.SecondWays),
		SpecPath: bpred.NewPathHist(cfg.DOLC.Depth),
		RetPath:  bpred.NewPathHist(cfg.DOLC.Depth),
	}
}

func (p *Predictor) t1Index(start isa.Addr) (idx, tag uint64) {
	x := uint64(start) >> 2
	return x & ((1 << p.t1.setBits) - 1), x
}

func (p *Predictor) t2Index(start isa.Addr, hist *bpred.PathHist) (idx, tag uint64) {
	return p.cfg.DOLC.Hash(hist, uint64(start), p.t2.setBits), uint64(start) >> 2
}

// Predict looks the stream starting at start up using the speculative path
// history. On a hit in both tables the path-correlated data wins.
func (p *Predictor) Predict(start isa.Addr) (Stream, bool) {
	p.lookups++
	if p.cfg.NoCascade {
		i1, tag1 := p.t1Index(start)
		if e := p.t1.lookup(i1, tag1); e != nil {
			p.hits++
			return Stream{Start: start, Len: int(e.len), Type: e.typ, Next: e.next}, true
		}
		return Stream{}, false
	}
	i2, tag2 := p.t2Index(start, p.SpecPath)
	i1, tag1 := p.t1Index(start)
	e2 := p.t2.lookup(i2, tag2)
	e1 := p.t1.lookup(i1, tag1)
	var e *streamEntry
	switch {
	case e2 != nil && e1 != nil:
		// Double hit: the path-correlated data wins unless the
		// address-indexed entry is strictly more confident (confidence
		// arbitration; see AlwaysPathPriority).
		if p.cfg.AlwaysPathPriority || e2.ctr >= e1.ctr {
			e = e2
		} else {
			e = e1
		}
	case e2 != nil:
		e = e2
	case e1 != nil:
		e = e1
	default:
		return Stream{}, false
	}
	p.hits++
	return Stream{Start: start, Len: int(e.len), Type: e.typ, Next: e.next}, true
}

// OnPredict records a predicted stream start into the speculative path
// history; the engine calls it for every issued stream prediction.
func (p *Predictor) OnPredict(start isa.Addr) {
	p.SpecPath.Push(uint64(start))
}

// Update learns a committed stream using the retirement path history (which
// must reflect the path *before* s.Start is pushed). mispredicted marks
// streams whose prediction failed; such streams are upgraded into the
// path-correlated table.
func (p *Predictor) Update(s Stream, mispredicted bool) {
	if s.Len > MaxStreamLen {
		s.Len = MaxStreamLen
	}
	i1, tag1 := p.t1Index(s.Start)
	i2, tag2 := p.t2Index(s.Start, p.RetPath)
	inT1 := p.t1.lookup(i1, tag1) != nil
	inT2 := p.t2.lookup(i2, tag2) != nil
	firstAppearance := !inT1 && !inT2

	p.t1.update(i1, tag1, s, true)
	// Second-table admission: first appearance or upgrade on
	// misprediction; otherwise only refresh an existing entry.
	if !p.cfg.NoCascade {
		insert := firstAppearance || (mispredicted && !p.cfg.NoUpgrade)
		p.t2.update(i2, tag2, s, insert)
	}
	p.RetPath.Push(uint64(s.Start))
}

// UpdatePartial learns a partial stream (opened at a misprediction
// fall-through). Partial streams are not part of the canonical stream
// sequence, so the retirement path history is not advanced; they are
// admitted to both tables so post-recovery lookups hit.
func (p *Predictor) UpdatePartial(s Stream) {
	if s.Len > MaxStreamLen {
		s.Len = MaxStreamLen
	}
	i1, tag1 := p.t1Index(s.Start)
	p.t1.update(i1, tag1, s, true)
	if !p.cfg.NoCascade {
		i2, tag2 := p.t2Index(s.Start, p.RetPath)
		p.t2.update(i2, tag2, s, !p.cfg.NoUpgrade)
	}
}

// Recover restores the speculative path history from the retirement copy.
func (p *Predictor) Recover() {
	p.SpecPath.CopyFrom(p.RetPath)
}

// HitRate returns the fraction of lookups that hit either table.
func (p *Predictor) HitRate() float64 {
	if p.lookups == 0 {
		return 0
	}
	return float64(p.hits) / float64(p.lookups)
}

// StorageBits estimates the predictor storage budget in bits (tag ~20,
// length 6, type 3, next address 32, counter 2).
func (p *Predictor) StorageBits() int {
	perEntry := 20 + 6 + 3 + 32 + 2
	return (p.cfg.FirstEntries + p.cfg.SecondEntries) * perEntry
}
