// Pull-based trace supply. A Source delivers the dynamic basic-block
// sequence one block at a time, so consumers (the simulator, codecs,
// analyses) run in memory independent of trace length: a 100M-instruction
// run needs no materialized block slice anywhere on the trace path.
//
// Three implementations cover the delivery modes:
//
//   - GenSource produces blocks on the fly from the seeded CFG walk
//     (NewGenSource); nothing is ever materialized.
//   - FileSource incrementally decodes the binary trace format (Open,
//     NewReader in file.go), so saved traces far larger than RAM replay.
//   - SliceSource wraps an existing []cfg.BlockID (NewSliceSource, or
//     Trace.Source) for tests and profiles that already hold a trace.
package trace

import (
	"errors"
	"fmt"
	"sort"

	"streamfetch/internal/cfg"
)

// Source supplies a dynamic basic-block sequence incrementally. Sources are
// single-use forward iterators: once exhausted they stay exhausted, and a
// fresh source is needed to walk the trace again. Sources are not safe for
// concurrent use.
type Source interface {
	// Next returns the next executed block; ok is false once the trace is
	// exhausted.
	Next() (id cfg.BlockID, ok bool)
	// NextBatch fills dst with the next executed blocks and returns how
	// many were delivered — the bulk form of Next, letting consumers pay
	// one interface call per batch instead of one per block. It returns 0
	// (for a non-empty dst) only once the trace is exhausted; short
	// non-zero batches are allowed (a file source may stop at a chunk
	// boundary, an interval source at a region boundary). Interleaving
	// NextBatch and Next is valid: both consume the same cursor.
	NextBatch(dst []cfg.BlockID) int
	// Skip fast-forwards the source past the maximal prefix of its
	// remaining whole blocks whose cumulative CFG-level instruction count
	// does not exceed n, returning the count actually skipped (less than
	// n when the boundary block would cross it, or when the trace ends
	// first). Blocks are never split: after Skip, Next delivers the block
	// containing instruction offset skipped. Skipping past EOF exhausts
	// the source and returns the instructions that remained. File- and
	// slice-backed sources need a program bound (Bind) for the per-block
	// instruction counts; an indexed trace file seeks, everything else
	// fast-forwards linearly without layout expansion or simulation.
	Skip(n uint64) (skipped uint64, err error)
	// Name returns the benchmark name the trace records.
	Name() string
	// TotalInsts returns the trace's CFG-level instruction count and
	// whether it is exact. Sources that know their full length up front
	// (in-memory traces, file headers, indexed files) report it
	// immediately; streamed sources report a running or unknown count
	// (exact only once the stream is exhausted, and 0 for formats that
	// carry no running count).
	TotalInsts() (n uint64, exact bool)
	// Close releases any resources held by the source and reports any
	// decode error encountered while streaming. Close on generator- and
	// slice-backed sources is a no-op.
	Close() error
}

// satAdd returns a+b, saturating at the maximum uint64 instead of wrapping
// (Skip targets are offsets and ^uint64(0) means "to the end").
func satAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return ^uint64(0)
}

// GenSource produces the block sequence on the fly from a seeded CFG walk,
// with no slice ever built. It emits exactly the sequence Generate would
// materialize for the same GenConfig.
type GenSource struct {
	g    *Generator
	name string
	max  uint64
	done bool
}

// NewGenSource returns a source that walks p from its entry under gc. As
// with Generate, emission stops once gc.MaxInsts CFG-level instructions
// have been emitted (the block crossing the threshold is included) or the
// program terminates; MaxInsts of 0 yields an empty source.
func NewGenSource(p *cfg.Program, gc GenConfig) *GenSource {
	return &GenSource{
		g:    NewGenerator(p, gc.Seed, gc.Profile),
		name: p.Name,
		max:  gc.MaxInsts,
	}
}

// Next returns the next executed block.
func (s *GenSource) Next() (cfg.BlockID, bool) {
	if s.done || s.g.Insts() >= s.max {
		s.done = true
		return cfg.NoBlock, false
	}
	id, ok := s.g.Next()
	if !ok {
		s.done = true
	}
	return id, ok
}

// NextBatch fills dst from the CFG walk, stopping at the generation budget
// or program termination — exactly the blocks len(dst) Next calls would
// deliver, through one call.
func (s *GenSource) NextBatch(dst []cfg.BlockID) int {
	n := 0
	for n < len(dst) {
		if s.done || s.g.Insts() >= s.max {
			s.done = true
			break
		}
		id, ok := s.g.Next()
		if !ok {
			s.done = true
			break
		}
		dst[n] = id
		n++
	}
	return n
}

// Skip fast-forwards the seeded CFG walk without layout expansion: blocks
// are stepped, not simulated, so skipping is an order of magnitude cheaper
// than simulating the same prefix. The generation budget (MaxInsts) applies
// to skipped instructions exactly as it does to emitted ones.
func (s *GenSource) Skip(n uint64) (uint64, error) {
	start := s.g.Insts()
	target := satAdd(start, n)
	for !s.done {
		if s.g.Insts() >= s.max {
			s.done = true
			break
		}
		ni, ok := s.g.PeekInsts()
		if !ok {
			s.done = true
			break
		}
		if satAdd(s.g.Insts(), uint64(ni)) > target {
			break
		}
		s.g.Next()
	}
	return s.g.Insts() - start, nil
}

// Name returns the program name.
func (s *GenSource) Name() string { return s.name }

// TotalInsts returns the instructions emitted so far; the count is exact
// once the source is exhausted.
func (s *GenSource) TotalInsts() (uint64, bool) { return s.g.Insts(), s.done }

// Close is a no-op.
func (s *GenSource) Close() error { return nil }

// SliceSource iterates a materialized block sequence.
type SliceSource struct {
	name   string
	blocks []cfg.BlockID
	insts  uint64
	i      int

	prog   *cfg.Program
	prefix []uint64 // prefix[i] = CFG insts before block i; built on first Skip
}

// NewSliceSource wraps an existing block slice as a source. The slice is
// not copied; insts is the sequence's total CFG-level instruction count.
func NewSliceSource(name string, blocks []cfg.BlockID, insts uint64) *SliceSource {
	return &SliceSource{name: name, blocks: blocks, insts: insts}
}

// Source returns a fresh source over the materialized trace.
func (t *Trace) Source() *SliceSource {
	return NewSliceSource(t.Name, t.Blocks, t.Insts)
}

// Next returns the next block of the slice.
func (s *SliceSource) Next() (cfg.BlockID, bool) {
	if s.i >= len(s.blocks) {
		return cfg.NoBlock, false
	}
	id := s.blocks[s.i]
	s.i++
	return id, true
}

// NextBatch copies the next blocks of the slice into dst.
func (s *SliceSource) NextBatch(dst []cfg.BlockID) int {
	n := copy(dst, s.blocks[s.i:])
	s.i += n
	return n
}

// Bind associates the program the trace was recorded against, giving the
// source the per-block instruction counts Skip needs.
func (s *SliceSource) Bind(p *cfg.Program) {
	if p != s.prog {
		s.prog, s.prefix = p, nil
	}
}

// Skip jumps the iterator forward by prefix-summed block lengths: the
// prefix-sum table is built once on first use, then every skip is a binary
// search plus an index assignment.
func (s *SliceSource) Skip(n uint64) (uint64, error) {
	if s.i >= len(s.blocks) || n == 0 {
		return 0, nil
	}
	if s.prog == nil {
		return 0, errors.New("trace: SliceSource.Skip needs a program (Bind)")
	}
	if s.prefix == nil {
		s.prefix = make([]uint64, len(s.blocks)+1)
		for i, id := range s.blocks {
			if int(id) < 0 || int(id) >= len(s.prog.Blocks) {
				s.prefix = nil
				return 0, fmt.Errorf("trace: block %d outside the bound program (%d blocks)", id, len(s.prog.Blocks))
			}
			s.prefix[i+1] = s.prefix[i] + uint64(s.prog.Blocks[id].NInsts)
		}
	}
	target := satAdd(s.prefix[s.i], n)
	// The largest boundary j with prefix[j] <= target; j >= s.i because
	// prefix[s.i] <= target.
	j := sort.Search(len(s.prefix), func(k int) bool { return s.prefix[k] > target }) - 1
	skipped := s.prefix[j] - s.prefix[s.i]
	s.i = j
	return skipped, nil
}

// Name returns the benchmark name.
func (s *SliceSource) Name() string { return s.name }

// TotalInsts returns the exact trace total.
func (s *SliceSource) TotalInsts() (uint64, bool) { return s.insts, true }

// Close is a no-op.
func (s *SliceSource) Close() error { return nil }

// ForEachPair streams src, invoking f for every block together with the
// dynamically following block (cfg.NoBlock for the last) — the lookahead
// that layout expansion needs. It consumes the source but does not close
// it.
func ForEachPair(src Source, f func(cur, next cfg.BlockID)) {
	cur, ok := src.Next()
	for ok {
		next, nextOK := src.Next()
		nb := cfg.NoBlock
		if nextOK {
			nb = next
		}
		f(cur, nb)
		cur, ok = next, nextOK
	}
}

// Drain consumes src to exhaustion and materializes it as a Trace. It is
// the bridge back from the streaming world for analyses that genuinely
// need random access; memory is proportional to the trace length.
func Drain(src Source) (*Trace, error) {
	t := &Trace{Name: src.Name()}
	for {
		id, ok := src.Next()
		if !ok {
			break
		}
		t.Blocks = append(t.Blocks, id)
	}
	if err := src.Close(); err != nil {
		return nil, err
	}
	t.Insts, _ = src.TotalInsts()
	return t, nil
}
