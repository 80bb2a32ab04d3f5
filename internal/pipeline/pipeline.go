// Package pipeline models the processor back-end consuming the front-end's
// fetch stream: an in-order reorder buffer retiring up to the pipe width per
// cycle, per-class execution latencies (loads consult the data cache and
// L2), and branch resolution a pipeline-depth after fetch — the point where
// mispredictions redirect the front-end. The back-end is identical across
// fetch architectures, so IPC differences come from fetch bandwidth and
// prediction accuracy, as in the paper's methodology.
package pipeline

import (
	"streamfetch/internal/cache"
	"streamfetch/internal/isa"
)

// Config parameterizes the back-end.
type Config struct {
	// Width is the pipe width (fetch/issue/retire per cycle).
	Width int
	// Depth is the pipeline depth in stages; a mispredicted branch
	// resolves Depth cycles after it was fetched (Table 2: 16 stages).
	Depth int
	// ROBSize bounds in-flight instructions (0 = 16x width).
	ROBSize int
	// DecodePenalty is the bubble charged by a decode-stage redirect.
	DecodePenalty int
	// MulLatency is the latency of long integer operations.
	MulLatency int
	// DataWorkingSet is the benchmark data footprint driving synthetic
	// load/store addresses.
	DataWorkingSet int
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.ROBSize == 0 {
		c.ROBSize = 16 * c.Width
	}
	if c.DecodePenalty == 0 {
		c.DecodePenalty = 4
	}
	if c.MulLatency == 0 {
		c.MulLatency = 3
	}
	if c.DataWorkingSet == 0 {
		c.DataWorkingSet = 1 << 21
	}
	return c
}

// Entry is one in-flight correct-path instruction. It is kept to 48 bytes —
// five words, then the byte-sized fields — so copies stay inline moves.
type Entry struct {
	Seq  uint64
	Addr isa.Addr
	// Target is the architectural taken target.
	Target       isa.Addr
	DoneCycle    uint64
	ResolveCycle uint64

	Class  isa.Class
	Branch isa.BranchType
	// Taken is the architectural direction.
	Taken bool
	// Mispredicted marks the branch whose prediction diverged.
	Mispredicted bool
}

// Window is the in-flight instruction window: one fixed-capacity ring whose
// oldest entries form the reorder buffer and whose remaining entries form
// the fetch buffer. Push appends to the fetch buffer, Issue moves the
// oldest fetch-buffer entry into the ROB by advancing the boundary, and
// PopHead retires the oldest ROB entry — no entry is ever copied between
// the parts, and nothing is reallocated, so the simulation hot loop is
// allocation-free.
//
// Wrong-path instructions — those fetched past a misprediction — occupy
// window capacity but carry no state anyone reads: they never retire and
// are flushed by the squash that resolves the misprediction. They are
// always a suffix of the window (every fetch after a divergence is
// wrong-path until the squash drops them all), so the window counts them
// instead of storing them, and the ring holds correct-path entries only.
//
// Entries must be pushed with consecutive sequence numbers (Push enforces
// this); since the parts are adjacent, sequence numbers are contiguous
// across the whole window, which makes SquashAfter and Find pure
// seq-offset arithmetic over both parts at once. The driver keeps the
// invariant by rewinding its sequence counter to the squash point on every
// wrong-path flush.
type Window struct {
	buf      []Entry
	head     int    // ring index of the oldest correct-path entry
	headSeq  uint64 // sequence number of the oldest entry, when n+wp > 0
	n        int    // correct-path entries
	wp       int    // wrong-path entries, behind the correct-path ones
	rob      int    // entries in the ROB part (the oldest rob of n+wp)
	robCap   int
	fetchCap int
}

// NewWindow builds a window of a robSize-entry reorder buffer followed by
// a fetchSize-entry fetch buffer.
func NewWindow(robSize, fetchSize int) *Window {
	if robSize <= 0 || fetchSize <= 0 {
		panic("pipeline: window capacities must be positive")
	}
	return &Window{buf: make([]Entry, robSize+fetchSize), robCap: robSize, fetchCap: fetchSize}
}

// ROBLen returns the ROB part's occupancy.
func (w *Window) ROBLen() int { return w.rob }

// ROBFull reports whether the ROB part is at capacity.
func (w *Window) ROBFull() bool { return w.rob == w.robCap }

// FetchLen returns the fetch buffer's occupancy.
func (w *Window) FetchLen() int { return w.n + w.wp - w.rob }

// FetchCap returns the fetch buffer's capacity.
func (w *Window) FetchCap() int { return w.fetchCap }

// idx maps the i-th oldest entry to its ring position.
func (w *Window) idx(i int) int {
	i += w.head
	if i >= len(w.buf) {
		i -= len(w.buf)
	}
	return i
}

// Push appends a correct-path entry with sequence number seq to the fetch
// buffer and returns its zeroed slot (Seq set) for the caller to fill;
// callers must check the buffer's capacity. Sequence numbers must be
// consecutive with the tail — the contiguity that turns Find and
// SquashAfter into O(1) arithmetic — and a correct-path entry cannot
// follow wrong-path ones: the squash that ends a wrong path drops them
// first. A slot is only rewritten once the ring wraps. Push runs once per
// fetched instruction and is kept within the compiler's inlining budget:
// check with go build -gcflags=-m after changing it.
func (w *Window) Push(seq uint64) *Entry {
	if w.wp > 0 || w.n-w.rob == w.fetchCap || (w.n > 0 && seq != w.headSeq+uint64(w.n)) {
		panic("pipeline: push to a full fetch buffer, out of sequence or behind wrong-path entries")
	}
	w.headSeq = seq - uint64(w.n) // unchanged unless the window was empty
	s := &w.buf[w.idx(w.n)]
	*s = Entry{Seq: seq}
	w.n++
	return s
}

// PushWrongPath appends a wrong-path instruction with sequence number seq
// to the fetch buffer, under Push's capacity and contiguity rules.
func (w *Window) PushWrongPath(seq uint64) {
	total := w.n + w.wp
	if total-w.rob == w.fetchCap || (total > 0 && seq != w.headSeq+uint64(total)) {
		panic("pipeline: push to a full fetch buffer or out of sequence")
	}
	w.headSeq = seq - uint64(total) // unchanged unless the window was empty
	w.wp++
}

// Issue moves the oldest fetch-buffer entry into the ROB and returns it for
// in-place update, or nil when it is a wrong-path instruction; callers
// must check FetchLen and ROBFull.
func (w *Window) Issue() *Entry {
	i := w.rob
	w.rob++
	if i >= w.n {
		return nil
	}
	return &w.buf[w.idx(i)]
}

// Head returns the oldest ROB entry for inspection, or nil when it is a
// wrong-path instruction (which never retires); callers must check ROBLen.
func (w *Window) Head() *Entry {
	if w.n == 0 {
		return nil
	}
	return &w.buf[w.head]
}

// PopHead retires the oldest ROB entry, which Head must have returned; the
// returned entry stays valid until the next Push.
func (w *Window) PopHead() *Entry {
	e := &w.buf[w.head]
	w.head++
	if w.head == len(w.buf) {
		w.head = 0
	}
	w.headSeq++
	w.n--
	w.rob--
	return e
}

// SquashAfter drops every entry with Seq > seq from both parts (wrong-path
// flush) and returns how many were dropped.
func (w *Window) SquashAfter(seq uint64) int {
	total := w.n + w.wp
	keep := 0
	if total > 0 && seq >= w.headSeq {
		keep = int(min(seq-w.headSeq+1, uint64(total)))
	}
	w.n = min(w.n, keep)
	w.wp = keep - w.n
	w.rob = min(w.rob, keep)
	return total - keep
}

// Find returns the in-flight correct-path entry, in either part, with the
// given sequence number, if present (used to attach misprediction state at
// divergence detection).
func (w *Window) Find(seq uint64) *Entry {
	if w.n == 0 || seq < w.headSeq || seq-w.headSeq >= uint64(w.n) {
		return nil
	}
	return &w.buf[w.idx(int(seq-w.headSeq))]
}

// LoadAddrGen synthesizes deterministic data addresses for loads and
// stores: each static memory instruction streams through a private hot
// region with occasional jumps across the working set, approximating the
// locality mix of integer codes. Address sequences depend only on the
// committed instruction stream and its PCs, so every fetch engine sees
// identical data-cache behaviour under one layout. Across layouts they
// differ: Next hashes the PC, and a layout moves the PCs of the same
// static instructions.
//
// Per-instruction counts are slot-indexed over the code segment, so the
// hot path is two array loads instead of a map access, but they are paged:
// a page holds the counters of 512 consecutive slots and exists only once
// one of them executes. A run reaches a small part of a large program's
// code (a 176.gcc run of 20k to 8M instructions writes 13-17 of its 551
// pages), so a generator holds about 64 KB where one counter per slot
// would take 2.25 MB. The first pages are carved from a slab allocated
// with the generator, which covers a typical run without allocating as
// it goes. PCs outside the declared segment fall back to a lazily-built
// overflow map.
type LoadAddrGen struct {
	workingSet uint64
	codeBase   isa.Addr
	slots      uint64     // code slots covered by pages
	pages      []*genPage // nil until a slot of the page executes
	slab       []genPage  // pages allocated with the generator, not yet used
	overflow   map[isa.Addr]uint64
}

const (
	// genPageSlots is the slot count of one counter page (4 KB).
	genPageSlots = 512
	// genSlabPages sizes the slab: 16 pages, 64 KB.
	genSlabPages = 16
)

// genPage holds the counters of genPageSlots consecutive code slots.
type genPage [genPageSlots]uint64

// DataBase is the base virtual address of the synthetic data segment.
const DataBase = uint64(0x1000_0000)

// NewLoadAddrGen builds a generator over a working set of the given bytes,
// for code occupying codeSlots instruction slots starting at codeBase
// (typically layout.CodeBase and Layout.TotalSlots).
func NewLoadAddrGen(workingSet int, codeBase isa.Addr, codeSlots int) *LoadAddrGen {
	ws := uint64(workingSet)
	if ws < 1<<15 {
		ws = 1 << 15
	}
	if codeSlots < 0 {
		codeSlots = 0
	}
	npages := (codeSlots + genPageSlots - 1) / genPageSlots
	return &LoadAddrGen{
		workingSet: ws,
		codeBase:   codeBase,
		slots:      uint64(codeSlots),
		pages:      make([]*genPage, npages),
		slab:       make([]genPage, min(npages, genSlabPages)),
	}
}

// counter returns slot s's counter, giving its page one on first use.
func (g *LoadAddrGen) counter(s uint64) *uint64 {
	p := g.pages[s/genPageSlots]
	if p == nil {
		p = g.newPage(s / genPageSlots)
	}
	return &p[s%genPageSlots]
}

// newPage installs page i: the next slab page, or a fresh one once the
// slab is used up.
func (g *LoadAddrGen) newPage(i uint64) *genPage {
	var p *genPage
	if len(g.slab) > 0 {
		p, g.slab = &g.slab[0], g.slab[1:]
	} else {
		p = new(genPage)
	}
	g.pages[i] = p
	return p
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Next returns the data address for the next dynamic execution of the
// memory instruction at pc. Consecutive executions of one static memory
// instruction mostly walk a small private region with a sub-line stride
// (high spatial locality, as integer codes exhibit), with occasional far
// accesses across the working set (pointer chasing).
func (g *LoadAddrGen) Next(pc isa.Addr) uint64 {
	var n uint64
	if s := uint64(pc-g.codeBase) / isa.InstBytes; pc >= g.codeBase && s < g.slots {
		c := g.counter(s)
		n = *c
		*c = n + 1
	} else {
		if g.overflow == nil {
			g.overflow = make(map[isa.Addr]uint64)
		}
		n = g.overflow[pc]
		g.overflow[pc] = n + 1
	}
	h := mix64(uint64(pc))
	if n%32 == 31 {
		// Occasional far access across the working set.
		return DataBase + (mix64(h^(n*0x9e3779b9))%g.workingSet)&^7
	}
	// Walk a 4KB hot region chosen per static instruction with an
	// 8-byte stride: eight accesses per cache line.
	const region = 4096
	base := (h % (g.workingSet - region)) &^ 63
	return DataBase + base + (n*8)%region
}

// Latency returns the execution latency of one instruction, charging the
// data cache hierarchy for its memory operations. Only correct-path
// instructions reach it: the window hands out no wrong-path slot.
type Latency struct {
	Hier *cache.Hierarchy
	Gen  *LoadAddrGen
	Mul  int
}

// For computes the latency of entry e in cycles. It is small enough to
// inline: only memory operations pay a call.
func (l *Latency) For(e *Entry) int {
	switch e.Class {
	case isa.ClassLoad, isa.ClassStore:
		return l.memory(e)
	case isa.ClassMul:
		return l.Mul
	}
	return 1
}

// memory charges the data cache hierarchy for a load or store and returns
// its latency.
func (l *Latency) memory(e *Entry) int {
	a := isa.Addr(l.Gen.Next(e.Addr))
	if e.Class == isa.ClassStore {
		l.Hier.Store(a)
		return 1
	}
	return l.Hier.LoadLatency(a)
}
