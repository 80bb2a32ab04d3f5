package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"testing"

	"streamfetch/internal/cfg"
	"streamfetch/internal/isa"
)

// programHashes pins every benchmark's synthesized program. A change to
// synthesis, to its RNG draw order or to the program representation that
// alters any value a simulation reads shows up here, for all 11 benchmarks
// rather than the few the report goldens run.
var programHashes = map[string]string{
	"164.gzip":    "f9debc4e4a630328c6036a631700caf01a84ab9238218ba2ca3db28a3e5d346d",
	"175.vpr":     "a904adf834aab7acef513f827c9e915b6f1a35d765695c82d3986890c9faf6b7",
	"176.gcc":     "695578c6c50a1ed82fa8eea05507c8495a39ddad10686f7a7bb99a828293051a",
	"186.crafty":  "15c09b4d13639ecbc6111085306f6fab338f765aca8b8d7a56fd877f85854fad",
	"197.parser":  "c0422a043ad2e71b43d6ad054d1d6e7ddbfaf582cab1e7456a2c2ae158d94b90",
	"252.eon":     "295edd14f1daf8666ee97d3c39f2635c52ab626254a8eeb529c281b8c62cc0a9",
	"253.perlbmk": "d922d304aed1c0d92dc26a90a15b3e8c5cdf128e81c8f59352e17beae97d5a8a",
	"254.gap":     "dd3d2cd46aa10ea840f50687b27c3e9da6697092428fffd8352b8f06ac4d9f09",
	"255.vortex":  "0c32b7ee12b7e258fd5416561a81386abfad3cddce67629991850b97e9646ac9",
	"256.bzip2":   "e6cc213f883714e874d654ba1adafb3ac91c65ba5aae66baef9edfeb2856cb7c",
	"300.twolf":   "24115c71a073d8cdbb0a9cb6cc927016f92b59da95ba98d40c0f173eac0f52f6",
}

// pinEncoder writes fixed-width little-endian values into a hash.
type pinEncoder struct {
	h   hash.Hash
	buf [8]byte
}

func (e *pinEncoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:], v)
	e.h.Write(e.buf[:])
}

func (e *pinEncoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *pinEncoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *pinEncoder) str(s string)  { e.i64(int64(len(s))); e.h.Write([]byte(s)) }
func (e *pinEncoder) bool(b bool) {
	var v uint64
	if b {
		v = 1
	}
	e.u64(v)
}

func (e *pinEncoder) block(b cfg.BlockID) { e.i64(int64(b)) }

// succProbs returns the static probability of each successor of block id,
// as the hash encodes it: an indirect branch or call stores its arm
// probabilities; a cond block's follow from its model, as synthesis drew
// them; every other successor is certain.
func succProbs(p *cfg.Program, id cfg.BlockID) []float64 {
	switch p.Blocks[id].Branch {
	case isa.BranchIndirect, isa.BranchIndirectCall:
		return p.ArmProbs(id)
	case isa.BranchCond:
		m := p.Cond(id)
		if m.Kind == cfg.CondLoop {
			return []float64{1.0 / float64(m.Trip), 1 - 1.0/float64(m.Trip)}
		}
		taken := condProb(m)
		return []float64{1 - taken, taken}
	}
	probs := make([]float64, len(p.Succs(id)))
	for i := range probs {
		probs[i] = 1
	}
	return probs
}

// condProb returns the long-run probability of the branch side of a cond.
func condProb(m cfg.CondModel) float64 {
	switch m.Kind {
	case cfg.CondBias:
		return m.P
	case cfg.CondPattern:
		n := 0
		for i := 0; i < int(m.Period); i++ {
			if m.PatternAt(i) {
				n++
			}
		}
		return float64(n) / float64(m.Period)
	case cfg.CondLoop:
		return 1 - 1/float64(m.Trip)
	}
	return 0.5
}

// procOf returns the index of the procedure holding block id: the last
// whose entry is at or before it.
func procOf(p *cfg.Program, id cfg.BlockID) int {
	return sort.Search(len(p.Procs), func(i int) bool { return p.Procs[i].Entry > id }) - 1
}

// programHash returns the SHA-256 of a canonical encoding of p: per block
// its instruction count, procedure, branch type, continuation, class list,
// successors with their probabilities, condition model (zero for a block
// without one) and indirect Markov probability (zero likewise), then the
// procedure table, each procedure with its blocks, and the entry block.
// A block's procedure and continuation are read through their derived
// forms, procOf and Program.Cont.
func programHash(p *cfg.Program) string {
	e := &pinEncoder{h: sha256.New()}
	e.str(p.Name)
	e.i64(int64(len(p.Blocks)))
	for i := range p.Blocks {
		id := cfg.BlockID(i)
		b := &p.Blocks[i]
		e.i64(int64(b.NInsts))
		e.i64(int64(procOf(p, id)))
		e.u64(uint64(b.Branch))
		e.block(p.Cont(id))
		cs := p.Classes(id)
		e.i64(int64(len(cs)))
		for _, c := range cs {
			e.u64(uint64(c))
		}
		succs := p.Succs(id)
		probs := succProbs(p, id)
		e.i64(int64(len(succs)))
		for j, s := range succs {
			e.block(s)
			e.f64(probs[j])
		}
		var m cfg.CondModel
		if b.Branch == isa.BranchCond {
			m = p.Cond(id)
		}
		e.u64(uint64(m.Kind))
		e.i64(int64(m.Trip))
		e.i64(int64(m.TripJitter))
		e.f64(m.P)
		e.i64(int64(m.Period))
		for j := 0; j < int(m.Period); j++ {
			e.bool(m.PatternAt(j))
		}
		var markov float64
		if b.Branch == isa.BranchIndirect || b.Branch == isa.BranchIndirectCall {
			markov = p.IndMarkov(id)
		}
		e.f64(markov)
	}
	// Each procedure's block list, in ID order.
	members := make([][]cfg.BlockID, len(p.Procs))
	for i := range p.Blocks {
		pi := procOf(p, cfg.BlockID(i))
		members[pi] = append(members[pi], cfg.BlockID(i))
	}
	e.i64(int64(len(p.Procs)))
	for pi, pr := range p.Procs {
		e.str(pr.Name)
		e.block(pr.Entry)
		e.i64(int64(len(members[pi])))
		for _, id := range members[pi] {
			e.block(id)
		}
	}
	e.block(p.Entry)
	return hex.EncodeToString(e.h.Sum(nil))
}

// TestProgramPinned checks every benchmark's program against its recorded
// hash.
func TestProgramPinned(t *testing.T) {
	suite := Suite()
	if len(suite) != len(programHashes) {
		t.Fatalf("suite has %d benchmarks, %d pinned", len(suite), len(programHashes))
	}
	for _, params := range suite {
		got := programHash(Generate(params))
		if want := programHashes[params.Name]; got != want {
			t.Errorf("%s: program hash %s, pinned %s", params.Name, got, want)
		}
	}
}
