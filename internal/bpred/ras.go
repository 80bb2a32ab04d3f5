// Return address stack with misprediction recovery via top-of-stack
// checkpointing (§3.2: "a shadow copy of the top of the stack is kept with
// each branch instruction").
package bpred

import "streamfetch/internal/isa"

// RAS is a fixed-depth circular return address stack.
type RAS struct {
	entries []isa.Addr
	top     int // index of the next push slot
}

// NewRAS builds a stack with the given depth (Table 2: 8 entries).
func NewRAS(depth int) *RAS {
	if depth <= 0 {
		panic("bpred: RAS depth must be positive")
	}
	return &RAS{entries: make([]isa.Addr, depth)}
}

// Push records a return address (on a call prediction or commit).
func (r *RAS) Push(a isa.Addr) {
	r.entries[r.top] = a
	r.top++
	if r.top == len(r.entries) {
		r.top = 0
	}
}

// Pop predicts the target of a return. An empty or wrapped stack simply
// yields whatever is resident, as hardware would.
func (r *RAS) Pop() isa.Addr {
	r.top = r.below(r.top)
	return r.entries[r.top]
}

// below returns the slot under slot i, wrapping.
func (r *RAS) below(i int) int {
	if i == 0 {
		i = len(r.entries)
	}
	return i - 1
}

// Checkpoint captures the state needed to undo wrong-path stack activity:
// the stack pointer and the entry at the top (which a wrong-path push may
// overwrite).
type RASCheckpoint struct {
	top int
	val isa.Addr
}

// Save returns a checkpoint of the current top of stack.
func (r *RAS) Save() RASCheckpoint {
	return RASCheckpoint{top: r.top, val: r.entries[r.below(r.top)]}
}

// Restore rewinds the stack to a checkpoint.
func (r *RAS) Restore(c RASCheckpoint) {
	r.top = c.top
	r.entries[r.below(r.top)] = c.val
}

// Depth returns the stack capacity.
func (r *RAS) Depth() int { return len(r.entries) }

// CopyFrom overwrites r with src. Engines keep a speculative and a retired
// stack and restore the speculative one wholesale on misprediction
// recovery, which subsumes the paper's shadow top-of-stack checkpointing.
func (r *RAS) CopyFrom(src *RAS) {
	copy(r.entries, src.entries)
	r.top = src.top
}
