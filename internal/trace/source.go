// Pull-based trace supply. A Source delivers the dynamic basic-block
// sequence a batch at a time (NextBatch), so consumers (the simulator,
// codecs, analyses) run in memory independent of trace length: a
// 100M-instruction run needs no materialized block slice anywhere on the
// trace path. Consumers that want one block at a time range over Blocks.
//
// Four implementations cover the delivery modes:
//
//   - GenSource produces blocks on the fly from the seeded CFG walk
//     (NewGenSource); nothing is ever materialized.
//   - FileSource incrementally decodes the binary trace format (Open,
//     NewReader in file.go), so saved traces far larger than RAM replay.
//   - SliceSource wraps an existing []cfg.BlockID (NewSliceSource, or
//     Trace.Source) for tests: it is the reference the streamed sources
//     are checked against.
//   - IntervalSource restricts another source to one instruction window
//     of the trace (NewInterval in interval.go).
//
// The first three fork (Forker): a fork is an independent source standing
// where its parent stands, which is how a Cursor positions every interval
// of a run with one walk of the trace (cursor.go).
package trace

import (
	"errors"
	"fmt"
	"iter"
	"slices"

	"streamfetch/internal/cfg"
)

// Source supplies a dynamic basic-block sequence incrementally. Sources are
// single-use forward iterators: once exhausted they stay exhausted, and a
// fresh source is needed to walk the trace again. Sources are not safe for
// concurrent use.
type Source interface {
	// NextBatch fills dst with the next executed blocks and returns how
	// many were delivered, so consumers pay one interface call per batch
	// instead of one per block. It returns 0 (for a non-empty dst) only
	// once the trace is exhausted; short non-zero batches are allowed (a
	// file source may stop at a chunk boundary, an interval source at a
	// region boundary).
	NextBatch(dst []cfg.BlockID) int
	// Skip fast-forwards the source past the maximal prefix of its
	// remaining whole blocks whose cumulative CFG-level instruction count
	// does not exceed n, returning the count actually skipped (less than
	// n when the boundary block would cross it, or when the trace ends
	// first). Blocks are never split: after Skip, the first block
	// delivered is the one containing instruction offset skipped. Skipping
	// past EOF exhausts the source and returns the instructions that
	// remained. File- and slice-backed sources need a program bound (Bind)
	// for the per-block instruction counts; a trace file opened by path
	// seeks through its chunk index, everything else fast-forwards
	// linearly without layout expansion or simulation, so a skip costs
	// O(n). Positioning many intervals of one trace is a Cursor's job:
	// one walk forward, forked at each interval, instead of one skip from
	// the head per interval.
	Skip(n uint64) (skipped uint64, err error)
	// Name returns the benchmark name the trace records.
	Name() string
	// TotalInsts returns the trace's CFG-level instruction count and
	// whether it is exact. Sources that know their full length up front
	// (slice-backed sources, trace files opened by path) report it
	// immediately; streamed sources report a running or unknown count
	// (exact only once the stream is exhausted, and 0 for a stream read
	// by NewReader, which carries no running count).
	TotalInsts() (n uint64, exact bool)
	// Close releases any resources held by the source and reports any
	// decode error encountered while streaming. Close on generator- and
	// slice-backed sources is a no-op.
	Close() error
}

// A Forker is a Source that forks: Fork returns an independent source
// positioned where the Forker stands, which delivers exactly the blocks
// the Forker would deliver next. Advancing either one leaves the other
// where it was.
type Forker interface {
	Source
	Fork() (Source, error)
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

// NextBatch fills dst from the CFG walk, stopping at the generation budget
// or program termination.
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
// than simulating the same prefix, but it still costs O(n): a walk has no
// shortcut to a position. The generation budget (MaxInsts) applies to
// skipped instructions exactly as it does to emitted ones.
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

// Fork returns a source continuing from a clone of the walk.
func (s *GenSource) Fork() (Source, error) {
	f := *s
	f.g = s.g.Clone()
	return &f, nil
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

// NextBatch copies the next blocks of the slice into dst.
func (s *SliceSource) NextBatch(dst []cfg.BlockID) int {
	n := copy(dst, s.blocks[s.i:])
	s.i += n
	return n
}

// Bind associates the program the trace was recorded against, giving the
// source the per-block instruction counts Skip needs.
func (s *SliceSource) Bind(p *cfg.Program) { s.prog = p }

// Skip steps the index forward over whole blocks, summing their lengths
// from the bound program.
func (s *SliceSource) Skip(n uint64) (uint64, error) {
	if s.i >= len(s.blocks) || n == 0 {
		return 0, nil
	}
	if s.prog == nil {
		return 0, errors.New("trace: SliceSource.Skip needs a program (Bind)")
	}
	var skipped uint64
	for ; s.i < len(s.blocks); s.i++ {
		id := s.blocks[s.i]
		if uint(id) >= uint(len(s.prog.Blocks)) {
			return skipped, fmt.Errorf("trace: block %d outside the bound program (%d blocks)", id, len(s.prog.Blocks))
		}
		ni := uint64(s.prog.Blocks[id].NInsts)
		if ni > n-skipped {
			break
		}
		skipped += ni
	}
	return skipped, nil
}

// Fork returns a source over the same slice at the same index.
func (s *SliceSource) Fork() (Source, error) {
	f := *s
	return &f, nil
}

// Name returns the benchmark name.
func (s *SliceSource) Name() string { return s.name }

// TotalInsts returns the exact trace total.
func (s *SliceSource) TotalInsts() (uint64, bool) { return s.insts, true }

// Close is a no-op.
func (s *SliceSource) Close() error { return nil }

// blocksBatch is how many blocks Blocks pulls per NextBatch call.
const blocksBatch = 512

// Blocks returns an iterator over the blocks src delivers, pulled through
// NextBatch blocksBatch at a time. It consumes the source but does not
// close it; a loop that breaks early discards the rest of the batch it
// stopped in.
func Blocks(src Source) iter.Seq[cfg.BlockID] {
	return func(yield func(cfg.BlockID) bool) {
		buf := make([]cfg.BlockID, blocksBatch)
		for {
			n := src.NextBatch(buf)
			if n == 0 {
				return
			}
			for _, id := range buf[:n] {
				if !yield(id) {
					return
				}
			}
		}
	}
}

// ForEachPair streams src, invoking f for every block together with the
// dynamically following block (cfg.NoBlock for the last) — the lookahead
// that layout expansion needs. It consumes the source but does not close
// it.
func ForEachPair(src Source, f func(cur, next cfg.BlockID)) {
	var cur cfg.BlockID
	started := false
	for next := range Blocks(src) {
		if started {
			f(cur, next)
		}
		cur, started = next, true
	}
	if started {
		f(cur, cfg.NoBlock)
	}
}

// Drain consumes src to exhaustion and materializes it as a Trace. It is
// the bridge back from the streaming world for analyses that genuinely
// need random access; memory is proportional to the trace length.
func Drain(src Source) (*Trace, error) {
	t := &Trace{Name: src.Name(), Blocks: slices.Collect(Blocks(src))}
	if err := src.Close(); err != nil {
		return nil, err
	}
	t.Insts, _ = src.TotalInsts()
	return t, nil
}
