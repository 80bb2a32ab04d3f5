package trace

import (
	"errors"
	"fmt"
	"sync"

	"streamfetch/internal/cfg"
)

// Cursor positions the intervals of one run. It walks the run's source
// forward once and forks it at each interval's lead-in start, so K
// intervals are positioned with one pass over the trace, O(trace), where
// skipping a fresh source from the head per interval costs O(K·trace).
// Its positions are fixed up front and may be taken in any order, from
// any goroutine: taking one advances the cursor to it, forking every
// position passed on the way and holding those forks until they are
// taken. The last position takes the cursor's own source.
type Cursor struct {
	mu    sync.Mutex
	src   Forker
	at    []uint64 // positions, ascending
	forks []forked // forks made and not yet taken, by position
	next  int      // first position not yet forked
	pos   uint64   // instructions skipped so far
	err   error
}

// forked is a source standing at, the instructions skipped to reach it.
type forked struct {
	src Source
	at  uint64
}

// NewCursor returns a cursor over src that will fork it at the ascending
// positions at, in CFG instructions. Each fork stands where a fresh
// source would after Skip(at[i]). src must be fresh and fork (Forker);
// it is bound to p for block lengths, and the cursor owns it.
func NewCursor(src Source, p *cfg.Program, at []uint64) (*Cursor, error) {
	f, ok := src.(Forker)
	if !ok {
		return nil, fmt.Errorf("trace: a %T does not fork", src)
	}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			return nil, errors.New("trace: cursor positions must ascend")
		}
	}
	if b, ok := src.(interface{ Bind(*cfg.Program) }); ok {
		b.Bind(p)
	}
	return &Cursor{src: f, at: at, forks: make([]forked, len(at))}, nil
}

// Fork returns the source standing at position i and the instructions it
// skipped to get there. The caller owns the source. Each position is
// taken once.
func (c *Cursor) Fork(i int) (Source, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil && c.next <= i {
		c.err = c.advance()
	}
	f := c.forks[i]
	c.forks[i] = forked{}
	switch {
	case f.src != nil:
		return f.src, f.at, nil
	case c.err != nil:
		return nil, 0, c.err
	}
	return nil, 0, fmt.Errorf("trace: cursor position %d taken twice", i)
}

// advance skips the cursor to its next position and forks it there.
func (c *Cursor) advance() error {
	to := c.at[c.next]
	n, err := c.src.Skip(to - c.pos)
	c.pos += n
	if err != nil {
		return fmt.Errorf("trace: skipping to interval at %d: %w", to, err)
	}
	var src Source = c.src
	if c.next < len(c.at)-1 {
		if src, err = c.src.Fork(); err != nil {
			return err
		}
	}
	c.forks[c.next] = forked{src, c.pos}
	c.next++
	return nil
}

// Close closes the cursor's source, unless the last position took it,
// and every fork not taken.
func (c *Cursor) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	if c.next < len(c.at) {
		err = c.src.Close()
	}
	for i, f := range c.forks {
		if f.src != nil {
			if cerr := f.src.Close(); err == nil {
				err = cerr
			}
			c.forks[i] = forked{}
		}
	}
	c.next, c.err = len(c.at), errors.New("trace: cursor closed")
	return err
}
