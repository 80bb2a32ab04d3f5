// Commit-side stream reconstruction: the retirement end of the stream fetch
// engine watches committed instructions and closes a stream at every taken
// branch (or at the length cap).
//
// Stream boundaries are architectural: only *actual* taken branches (and the
// length cap) delimit streams. A branch that was predicted taken but fell
// through does not break the stream — the full-length stream still closes at
// its real terminator, so the predictor always learns the truth about the
// canonical stream. The misprediction instead opens a *partial stream* at
// the fall-through address (the point where fetch resumed, §1 of the paper);
// when the enclosing stream closes, the partial tail is emitted as well so
// future recoveries at that address hit the predictor.
package core

import "streamfetch/internal/isa"

// Builder incrementally rebuilds streams from the committed instruction
// stream. The front-end engine feeds it every retired instruction; Builder
// emits completed streams for predictor training.
type Builder struct {
	start   isa.Addr
	len     int
	started bool
	// mispredictedStream marks that a prediction failed inside the
	// in-flight stream (the closing update upgrades it into the path
	// table).
	mispredictedStream bool
	// partialStart/partialLen track the newest partial stream opened by a
	// not-taken misprediction inside the current stream.
	partialStart isa.Addr
	partialLen   int
	hasPartial   bool
	// closed is the storage Commit returns a pointer to.
	closed Closed
}

// NewBuilder returns a builder that will start its first stream at entry.
func NewBuilder(entry isa.Addr) *Builder {
	return &Builder{start: entry, started: true}
}

// Closed describes the streams completed by one committed instruction: the
// canonical stream, plus (optionally) the partial stream opened at the last
// not-taken misprediction inside it.
type Closed struct {
	Stream       Stream
	Mispredicted bool
	Partial      Stream
	HasPartial   bool
}

// Commit consumes one committed instruction and, when the instruction
// completes a stream, returns the streams it closed; otherwise it returns
// nil. The Closed value is owned by the builder and is overwritten by the
// next Commit, so it is returned by pointer instead of copied for every
// retired instruction.
//
// taken/target describe the architectural outcome; mispredicted marks the
// branch that caused a front-end redirect. A mispredicted not-taken branch
// opens a partial stream at its fall-through; a taken branch (mispredicted
// or not) terminates the current stream.
func (b *Builder) Commit(addr isa.Addr, branch isa.BranchType, taken bool, target isa.Addr, mispredicted bool) *Closed {
	if !b.started {
		b.start = addr
		b.started = true
	}
	b.len++
	if b.hasPartial {
		b.partialLen++
	}
	if mispredicted {
		b.mispredictedStream = true
	}
	switch {
	case branch != isa.BranchNone && taken:
		c := &b.closed
		c.Stream = Stream{Start: b.start, Len: b.len, Type: branch, Next: target}
		c.Mispredicted = b.mispredictedStream
		c.Partial, c.HasPartial = Stream{}, false
		if b.hasPartial && b.partialLen > 0 && b.partialLen < b.len {
			c.Partial = Stream{Start: b.partialStart, Len: b.partialLen, Type: branch, Next: target}
			c.HasPartial = true
		}
		b.reset(target)
		return c
	case mispredicted:
		// Predicted taken, fell through: fetch resumed at the
		// fall-through — a partial stream starts there. The canonical
		// stream keeps accumulating so its full length is learned.
		b.partialStart = addr.Next()
		b.partialLen = 0
		b.hasPartial = true
		return nil
	case b.len >= MaxStreamLen:
		// Length cap: close a sequential pseudo-stream so table
		// entries fit their length field.
		next := b.start.Plus(b.len)
		c := &b.closed
		c.Stream = Stream{Start: b.start, Len: b.len, Type: isa.BranchNone, Next: next}
		c.Mispredicted = b.mispredictedStream
		c.Partial, c.HasPartial = Stream{}, false
		b.reset(next)
		return c
	}
	return nil
}

func (b *Builder) reset(start isa.Addr) {
	b.start = start
	b.len = 0
	b.mispredictedStream = false
	b.hasPartial = false
	b.partialLen = 0
}

// Reset repositions the builder (used when the architectural stream is
// redirected outside Commit's knowledge, e.g. at simulation start).
func (b *Builder) Reset(start isa.Addr) {
	b.reset(start)
	b.started = true
}
