// Package frontend defines the fetch-engine contract shared by the four
// simulated front-ends (EV8, FTB, streams, trace cache) and the common
// machinery they are built from: the fetch target queue and the
// single-ported wide-line instruction cache fetcher with the fetch-request
// update mechanism of §3.3.
package frontend

import (
	"streamfetch/internal/cache"
	"streamfetch/internal/isa"
	"streamfetch/internal/layout"
)

// FetchedInst is one instruction delivered by a fetch engine.
type FetchedInst struct {
	Addr isa.Addr
	Inst isa.Inst
}

// Committed describes one retired instruction, fed back to the engine for
// commit-time predictor training.
type Committed struct {
	Addr isa.Addr
	// Branch is the effective branch type (BranchNone for plain
	// instructions).
	Branch isa.BranchType
	// Taken and Target give the architectural outcome for branches.
	Taken  bool
	Target isa.Addr
	// Mispredicted marks the branch whose prediction caused a front-end
	// redirect.
	Mispredicted bool
}

// Engine is a processor front-end. The driving simulator calls Cycle every
// cycle fetch may proceed, validates the fetched addresses against the
// correct path, redirects on decode fix-ups and resolved mispredictions, and
// feeds retirement back through Commit.
type Engine interface {
	// Name identifies the engine in reports.
	Name() string
	// Cycle runs one front-end cycle, appending fetched instructions
	// (at most the pipe width) to out.
	Cycle(out []FetchedInst) []FetchedInst
	// Redirect restarts fetching at target. recover is true when the
	// redirect comes from a resolved branch misprediction, in which case
	// speculative predictor state (histories, RAS) is restored from the
	// retirement copies; decode-stage fix-ups pass false.
	Redirect(target isa.Addr, recover bool)
	// Commit retires one instruction in program order.
	Commit(c Committed)
	// FetchStats reports delivery statistics.
	FetchStats() FetchStats
	// AppendWarmState appends the engine's warm microarchitectural state
	// (predictor tables, trace storage, return stacks, in-flight
	// commit-side builders) to dst, for a checkpoint. Fetch-side state
	// (fetch address, FTQ, busy counters) is deliberately out of scope:
	// checkpoints are taken at an interval boundary before the first
	// timed cycle, where that state still holds its construction-time
	// values in both the capturing and the restoring run. Statistics
	// counters are likewise excluded.
	AppendWarmState(dst []byte) []byte
	// LoadWarmState restores state produced by AppendWarmState on an
	// engine of identical configuration. On error the engine may be
	// partially modified and must be discarded.
	LoadWarmState(data []byte) error
}

// FetchStats aggregates front-end delivery statistics. The counters are
// mergeable: independently collected blocks (parallel trace intervals)
// combine with Merge, and a warmup prefix is excluded with Delta.
type FetchStats struct {
	// Delivered counts instructions handed to the pipeline (correct and
	// wrong path).
	Delivered uint64
	// Cycles counts front-end cycles in which delivery was attempted.
	Cycles uint64
	// DeliveryCycles counts cycles with at least one delivered
	// instruction.
	DeliveryCycles uint64
	// Units counts fetch units issued (streams/blocks/traces predicted).
	Units uint64
	// UnitInsts accumulates predicted unit lengths.
	UnitInsts uint64
	// PredictorLookups/PredictorHits count unit-predictor activity.
	PredictorLookups uint64
	PredictorHits    uint64
}

// Reset zeroes the counters.
func (s *FetchStats) Reset() { *s = FetchStats{} }

// Merge accumulates another counter block into s.
func (s *FetchStats) Merge(o FetchStats) {
	s.Delivered += o.Delivered
	s.Cycles += o.Cycles
	s.DeliveryCycles += o.DeliveryCycles
	s.Units += o.Units
	s.UnitInsts += o.UnitInsts
	s.PredictorLookups += o.PredictorLookups
	s.PredictorHits += o.PredictorHits
}

// Delta returns the events counted since the earlier snapshot.
func (s FetchStats) Delta(since FetchStats) FetchStats {
	return FetchStats{
		Delivered:        s.Delivered - since.Delivered,
		Cycles:           s.Cycles - since.Cycles,
		DeliveryCycles:   s.DeliveryCycles - since.DeliveryCycles,
		Units:            s.Units - since.Units,
		UnitInsts:        s.UnitInsts - since.UnitInsts,
		PredictorLookups: s.PredictorLookups - since.PredictorLookups,
		PredictorHits:    s.PredictorHits - since.PredictorHits,
	}
}

// MeanUnitLen returns the mean predicted fetch-unit length.
func (s FetchStats) MeanUnitLen() float64 {
	if s.Units == 0 {
		return 0
	}
	return float64(s.UnitInsts) / float64(s.Units)
}

// FetchIPC returns delivered instructions per delivery-attempt cycle.
func (s FetchStats) FetchIPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Delivered) / float64(s.Cycles)
}

// Request is a fetch request: Len instructions starting at Start. The
// instruction cache satisfies it over one or more cycles, updating the
// request in place (§3.3's fetch request update mechanism).
type Request struct {
	Start isa.Addr
	Len   int
}

// FTQ is the fetch target queue decoupling the unit predictor from the
// instruction cache (Reinman, Austin & Calder). It is a fixed-capacity ring
// buffer: Push/Pop never reslice or reallocate, keeping the per-cycle fetch
// path allocation-free.
type FTQ struct {
	q    []Request
	head int
	n    int
}

// NewFTQ builds a queue with the given capacity (Table 2: 4 entries).
func NewFTQ(capacity int) *FTQ {
	if capacity <= 0 {
		panic("frontend: FTQ capacity must be positive")
	}
	return &FTQ{q: make([]Request, capacity)}
}

// Full reports whether another request fits.
func (f *FTQ) Full() bool { return f.n == len(f.q) }

// Empty reports whether the queue holds no requests.
func (f *FTQ) Empty() bool { return f.n == 0 }

// Len returns the number of queued requests.
func (f *FTQ) Len() int { return f.n }

// Push appends a request; it panics when full (callers must check).
func (f *FTQ) Push(r Request) {
	if f.Full() {
		panic("frontend: push to full FTQ")
	}
	i := f.head + f.n
	if i >= len(f.q) {
		i -= len(f.q)
	}
	f.q[i] = r
	f.n++
}

// Front returns the oldest request for in-place update; callers must check
// Empty.
func (f *FTQ) Front() *Request { return &f.q[f.head] }

// Pop removes the oldest request; callers must check Empty.
func (f *FTQ) Pop() {
	f.head++
	if f.head == len(f.q) {
		f.head = 0
	}
	f.n--
}

// Clear empties the queue (redirect).
func (f *FTQ) Clear() { f.head, f.n = 0, 0 }

// ICacheFetcher drains fetch requests through a single-ported instruction
// cache with very wide lines, delivering at most width instructions per
// cycle and never crossing a line boundary within a cycle.
//
// Banks = 2 models the §3.4 alternative: a multi-banked cache reading two
// consecutive lines per cycle, which removes the misalignment penalty at
// the cost of an interchange network (both banks are charged for their
// accesses). The default (0 or 1) is the paper's chosen wide-line design.
type ICacheFetcher struct {
	Hier  *cache.Hierarchy
	Image *layout.Layout
	Width int
	Banks int

	busy int // remaining miss-stall cycles
}

// fetchLimit returns the address at which this cycle's delivery must stop:
// the end of the current line, or of the following line with two banks.
func (f *ICacheFetcher) fetchLimit(start isa.Addr) isa.Addr {
	lineBytes := isa.Addr(f.Hier.ICache.LineBytes())
	end := (start/lineBytes + 1) * lineBytes
	if f.Banks >= 2 {
		// The second bank supplies the next consecutive line; charge
		// its access (it may miss independently).
		if lat := f.Hier.FetchLatency(end); lat > 1 {
			// Second-bank miss: deliver only the first line this
			// cycle; the line fill proceeds in the background
			// (no extra stall modelled beyond losing the bank).
			return end
		}
		end += lineBytes
	}
	return end
}

// Busy reports whether the fetcher is stalled on a line miss.
func (f *ICacheFetcher) Busy() bool { return f.busy > 0 }

// Reset drops any in-flight miss stall (redirect).
func (f *ICacheFetcher) Reset() { f.busy = 0 }

// CycleFTQ services the queue for one cycle. The line read for the front
// request also satisfies following requests that continue exactly where the
// previous one ended within the same line — the rotate-and-select network
// merges adjacent fetch blocks read from the single line access — up to the
// pipe width.
func (f *ICacheFetcher) CycleFTQ(q *FTQ, out []FetchedInst) []FetchedInst {
	if q.Empty() {
		return out
	}
	req := q.Front()
	if f.busy > 0 {
		f.busy--
		if f.busy > 0 {
			return out
		}
	} else {
		lat := f.Hier.FetchLatency(req.Start)
		if lat > 1 {
			f.busy = lat - 1
			return out
		}
	}
	lineEnd := f.fetchLimit(req.Start)
	budget := f.Width
	expected := req.Start
	for budget > 0 && !q.Empty() {
		req = q.Front()
		if req.Start != expected || req.Start >= lineEnd {
			break // different line or non-contiguous: next cycle
		}
		n := req.Len
		if n > budget {
			n = budget
		}
		if room := int(lineEnd-req.Start) / isa.InstBytes; n > room {
			n = room
		}
		for i := 0; i < n; i++ {
			// FetchAt is total: wrong-path addresses outside the code
			// segment yield synthetic instructions, so the misprediction
			// that led here still resolves normally.
			inst := f.Image.FetchAt(req.Start)
			out = append(out, FetchedInst{Addr: req.Start, Inst: inst})
			req.Start = req.Start.Next()
			req.Len--
		}
		budget -= n
		expected = req.Start
		if req.Len <= 0 {
			q.Pop()
		} else {
			break // request continues (line boundary or width)
		}
	}
	return out
}
