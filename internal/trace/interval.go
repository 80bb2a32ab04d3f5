// Interval windows over trace sources: the unit of parallelism for sharded
// simulation. An IntervalSource restricts an underlying source to one
// contiguous instruction range of the trace, preceded by an optional
// timing warmup (Warmup): blocks simulated normally but with counters
// frozen, training predictors and pipeline state. Everything before the
// warmup is skipped outright (Skip seeks through indexed trace files, or
// fast-forwards the CFG walk); a consumer that wants warm state at the
// skip point restores it (see sim.Processor.WarmPrefix).
//
// Interval boundaries snap to whole blocks with the same maximal-prefix
// rule Skip uses, so the measured windows of consecutive intervals tile the
// trace exactly: every block lands in the measured region of exactly one
// interval, whatever the shard count.
package trace

import (
	"fmt"

	"streamfetch/internal/cfg"
)

// Region classifies a delivered block's role within an interval.
type Region uint8

const (
	// RegionMeasure blocks are the interval's payload: simulated and
	// counted.
	RegionMeasure Region = iota
	// RegionWarm blocks are the timing-warmup lead-in: simulated with
	// counters frozen.
	RegionWarm
)

// IntervalConfig describes one interval of a trace.
type IntervalConfig struct {
	// Start and End bound the measure window in CFG-level instructions
	// (End 0 = to the trace's end).
	Start, End uint64
	// Warmup is the timing-warmup lead-in length in instructions.
	Warmup uint64
}

// IntervalSource is a Source delivering one instruction interval of an
// underlying trace, with lead-in regions flagged per block (LastRegion).
// It is built by NewInterval and consumed like any other source. Every
// block it delivers is checked against the program: a block outside it
// ends the interval with an error that Close reports.
type IntervalSource struct {
	src    Source
	blocks []cfg.Block

	pos uint64 // absolute CFG-inst position of the next block

	measureAt uint64 // absolute position where measurement starts
	end       uint64 // absolute limit (0 = to the trace's end)

	skipped  uint64 // insts jumped over before delivery began
	warm     uint64 // insts delivered as timing-warmup lead-in
	measured uint64 // insts delivered inside the measure window

	// held[hi:] are blocks pulled from src but not yet delivered: a block
	// staged by a peek, or the tail of a batch cut at the measure boundary.
	held []cfg.BlockID
	hi   int

	lastRegion Region
	done       bool
	err        error
}

// NewInterval positions src at the head of the interval c describes. src
// must be fresh (positioned at the trace's head); it is bound to p for
// block lengths when the interval starts past the head, and the interval
// owns it: closing the interval closes it.
func NewInterval(src Source, p *cfg.Program, c IntervalConfig) (*IntervalSource, error) {
	warmFrom := uint64(0)
	if c.Start > c.Warmup {
		warmFrom = c.Start - c.Warmup
	}
	var skipped uint64
	if warmFrom > 0 {
		if b, ok := src.(interface{ Bind(*cfg.Program) }); ok {
			b.Bind(p)
		}
		var err error
		if skipped, err = src.Skip(warmFrom); err != nil {
			return nil, fmt.Errorf("trace: skipping to interval at %d: %w", warmFrom, err)
		}
	}
	return &IntervalSource{
		src:       src,
		blocks:    p.Blocks,
		pos:       skipped,
		skipped:   skipped,
		measureAt: c.Start,
		end:       c.End,
	}, nil
}

// blockLen returns id's instruction count, ending the interval with an
// error when id is outside the program.
func (s *IntervalSource) blockLen(id cfg.BlockID) (uint64, bool) {
	if uint(id) >= uint(len(s.blocks)) {
		s.done = true
		s.err = fmt.Errorf("trace: block %d outside the bound program (%d blocks)", id, len(s.blocks))
		return 0, false
	}
	return uint64(s.blocks[id].NInsts), true
}

// peekLen stages the next block and returns its instruction count.
func (s *IntervalSource) peekLen() (uint64, bool) {
	if s.done {
		return 0, false
	}
	if s.hi == len(s.held) {
		id, ok := s.src.Next()
		if !ok {
			s.done = true
			return 0, false
		}
		s.held, s.hi = append(s.held[:0], id), 0
	}
	return s.blockLen(s.held[s.hi])
}

// region classifies the block of length ni at the current position.
func (s *IntervalSource) region(ni uint64) Region {
	if s.pos+ni <= s.measureAt {
		return RegionWarm
	}
	return RegionMeasure
}

// consume delivers the staged block of length ni.
func (s *IntervalSource) consume(ni uint64) cfg.BlockID {
	s.lastRegion = s.region(ni)
	s.pos += ni
	if s.lastRegion == RegionWarm {
		s.warm += ni
	} else {
		s.measured += ni
	}
	s.hi++
	return s.held[s.hi-1]
}

// Next returns the next block of the interval: the lead-in regions first,
// then the measured window. It ends before the first block that would
// cross the interval's end boundary.
func (s *IntervalSource) Next() (cfg.BlockID, bool) {
	ni, ok := s.peekLen()
	if !ok {
		return cfg.NoBlock, false
	}
	if s.end > 0 && s.pos+ni > s.end {
		s.done = true
		return cfg.NoBlock, false
	}
	return s.consume(ni), true
}

// NextBatch fills dst with the next blocks of the interval, pulling them
// from the underlying source in one NextBatch and classifying them in one
// loop. A batch never spans a region boundary — every delivered block
// shares the region LastRegion reports — so consumers that flag whole
// batches stay exact; the blocks past a region boundary are held for the
// next call. Inside a region (the common, all-measured case) it passes
// the underlying batches through.
func (s *IntervalSource) NextBatch(dst []cfg.BlockID) int {
	if s.done || len(dst) == 0 {
		return 0
	}
	n := copy(dst, s.held[s.hi:])
	s.hi += n
	pulled := n < len(dst)
	if pulled {
		n += s.src.NextBatch(dst[n:])
		if n == 0 {
			s.done = true
			return 0
		}
	}
	pos := s.pos
	reg := RegionMeasure
	for i, id := range dst[:n] {
		ni, ok := s.blockLen(id)
		if !ok {
			n = i
			break
		}
		next := pos + ni
		if s.end > 0 && next > s.end {
			s.done = true
			n = i
			break
		}
		r := RegionMeasure
		if next <= s.measureAt {
			r = RegionWarm
		}
		if i == 0 {
			reg = r
		} else if r != reg {
			// Hold the rest for the next batch. Without a pull it is
			// still in held, just behind the cursor.
			if pulled {
				s.held, s.hi = append(s.held[:0], dst[i:n]...), 0
			} else {
				s.hi -= n - i
			}
			n = i
			break
		}
		pos = next
	}
	if n > 0 {
		s.lastRegion = reg
		if reg == RegionWarm {
			s.warm += pos - s.pos
		} else {
			s.measured += pos - s.pos
		}
		s.pos = pos
	}
	return n
}

// Skip fast-forwards within the interval (maximal whole-block prefix of at
// most n instructions), never past its end boundary.
func (s *IntervalSource) Skip(n uint64) (uint64, error) {
	start := s.pos
	target := satAdd(start, n)
	for {
		ni, ok := s.peekLen()
		if !ok {
			break
		}
		if s.end > 0 && s.pos+ni > s.end {
			break // boundary block: leave it for Next to refuse
		}
		if satAdd(s.pos, ni) > target {
			break
		}
		s.consume(ni)
	}
	return s.pos - start, s.err
}

// LastRegion reports which region the block most recently returned by
// Next belongs to.
func (s *IntervalSource) LastRegion() Region { return s.lastRegion }

// LastWarm reports whether the block most recently returned by Next lies
// in the timing-warmup lead-in.
func (s *IntervalSource) LastWarm() bool { return s.lastRegion == RegionWarm }

// WarmupPending reports whether any timing-warmup lead-in remains
// ahead of the current position; once it returns false every further block
// is measured. It peeks the next block: lead-in blocks are a strict
// prefix, so lead-in remains exactly when the next block ends at or before
// the measure boundary.
func (s *IntervalSource) WarmupPending() bool {
	ni, ok := s.peekLen()
	return ok && s.region(ni) != RegionMeasure
}

// SkippedInsts returns the instructions jumped over before delivery began.
func (s *IntervalSource) SkippedInsts() uint64 { return s.skipped }

// WarmupInsts returns the instructions delivered as timing-warmup lead-in
// so far.
func (s *IntervalSource) WarmupInsts() uint64 { return s.warm }

// MeasuredInsts returns the instructions delivered inside the measure
// window so far.
func (s *IntervalSource) MeasuredInsts() uint64 { return s.measured }

// Name returns the underlying trace's benchmark name.
func (s *IntervalSource) Name() string { return s.src.Name() }

// TotalInsts reports the underlying trace's total, not the interval's:
// callers sizing the interval use MeasuredInsts/WarmupInsts instead.
func (s *IntervalSource) TotalInsts() (uint64, bool) { return s.src.TotalInsts() }

// Close closes the underlying source and surfaces any decode or
// consistency error from the interval walk.
func (s *IntervalSource) Close() error {
	err := s.src.Close()
	if s.err != nil {
		return s.err
	}
	return err
}
