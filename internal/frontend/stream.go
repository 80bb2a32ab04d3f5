// The stream fetch engine (§3, Figure 4): a next stream predictor provides
// stream-level sequencing into an FTQ; the wide-line instruction cache
// drains the FTQ with the fetch-request update mechanism. On a predictor
// miss the engine falls back to sequential fetching — no backup predictor is
// needed.
package frontend

import (
	"streamfetch/internal/bpred"
	"streamfetch/internal/cache"
	"streamfetch/internal/core"
	"streamfetch/internal/isa"
	"streamfetch/internal/layout"
)

// StreamConfig configures the stream fetch engine.
type StreamConfig struct {
	Predictor core.PredictorConfig
	FTQDepth  int
	RASDepth  int
	// ICacheBanks selects the instruction cache organization: 1 (default)
	// reads one very wide line per cycle; 2 reads two consecutive lines
	// from a multi-banked cache (§3.4's alternative design).
	ICacheBanks int
}

// DefaultStreamConfig returns the Table-2 configuration.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{
		Predictor: core.DefaultPredictorConfig(),
		FTQDepth:  4,
		RASDepth:  8,
	}
}

// StreamEngine is the paper's front-end.
type StreamEngine struct {
	pred    *core.Predictor
	ftq     *FTQ
	fetcher ICacheFetcher
	builder *core.Builder

	specRAS *bpred.RAS
	retRAS  *bpred.RAS

	fetchAddr isa.Addr
	// seqMode is true while the predictor misses and fetch proceeds
	// sequentially; the episode start is pushed into the speculative
	// path history once, keeping it aligned with the commit-side stream
	// sequence.
	seqMode bool
	stats   FetchStats
}

// NewStreamEngine builds a stream front-end fetching from image through
// hier, starting at entry.
func NewStreamEngine(cfg StreamConfig, hier *cache.Hierarchy, image *layout.Layout, width int, entry isa.Addr) *StreamEngine {
	return &StreamEngine{
		pred:    core.NewPredictor(cfg.Predictor),
		ftq:     NewFTQ(cfg.FTQDepth),
		fetcher: ICacheFetcher{Hier: hier, Image: image, Width: width, Banks: cfg.ICacheBanks},
		builder: core.NewBuilder(entry),
		specRAS: bpred.NewRAS(cfg.RASDepth),
		retRAS:  bpred.NewRAS(cfg.RASDepth),

		fetchAddr: entry,
	}
}

// Name implements Engine.
func (e *StreamEngine) Name() string { return "streams" }

// Predictor exposes the next stream predictor (for reports and tests).
func (e *StreamEngine) Predictor() *core.Predictor { return e.pred }

// Cycle implements Engine: one prediction-stage step and one
// instruction-cache step.
func (e *StreamEngine) Cycle(out []FetchedInst) []FetchedInst {
	e.stats.Cycles++

	// Fetch request generation: one stream prediction per cycle.
	if !e.ftq.Full() {
		e.stats.PredictorLookups++
		if s, hit := e.pred.Predict(e.fetchAddr); hit {
			e.stats.PredictorHits++
			e.stats.Units++
			e.stats.UnitInsts += uint64(s.Len)
			next := s.Next
			switch {
			case s.Type.IsReturn():
				next = e.specRAS.Pop()
			case s.Type.IsCall():
				e.specRAS.Push(s.End())
			}
			e.ftq.Push(Request{Start: e.fetchAddr, Len: s.Len})
			e.pred.OnPredict(e.fetchAddr)
			e.seqMode = false
			e.fetchAddr = next
		} else {
			// Sequential fetching until the predictor hits again or
			// a misprediction is detected (§3.2). Request up to the
			// end of the current cache line. The episode start is a
			// (partial) stream start: record it in the speculative
			// path once so lookup and update histories stay aligned.
			if !e.seqMode {
				e.pred.OnPredict(e.fetchAddr)
				e.seqMode = true
			}
			lineBytes := isa.Addr(e.fetcher.Hier.ICache.LineBytes())
			lineEnd := (e.fetchAddr/lineBytes + 1) * lineBytes
			n := int(lineEnd-e.fetchAddr) / isa.InstBytes
			e.ftq.Push(Request{Start: e.fetchAddr, Len: n})
			e.fetchAddr = e.fetchAddr.Plus(n)
		}
	}

	// Instruction cache access: drain the queue through the wide line.
	before := len(out)
	out = e.fetcher.CycleFTQ(e.ftq, out)
	if n := len(out) - before; n > 0 {
		e.stats.Delivered += uint64(n)
		e.stats.DeliveryCycles++
	}
	return out
}

// Redirect implements Engine.
func (e *StreamEngine) Redirect(target isa.Addr, recover bool) {
	e.ftq.Clear()
	e.fetcher.Reset()
	e.fetchAddr = target
	e.seqMode = false
	if recover {
		e.pred.Recover()
		e.specRAS.CopyFrom(e.retRAS)
	}
}

// Commit implements Engine: retired instructions rebuild streams for
// predictor training and maintain the retirement RAS.
func (e *StreamEngine) Commit(c Committed) {
	if c.Branch.IsCall() && c.Taken {
		e.retRAS.Push(c.Addr.Next())
	}
	if c.Branch.IsReturn() && c.Taken {
		e.retRAS.Pop()
	}
	if cl := e.builder.Commit(c.Addr, c.Branch, c.Taken, c.Target, c.Mispredicted); cl != nil {
		e.pred.Update(cl.Stream, cl.Mispredicted)
		if cl.HasPartial {
			// Teach the predictor the partial stream too, so the
			// next recovery at its start address hits. Partial
			// streams exist because of a misprediction: admit them
			// to the path table as upgrades.
			e.pred.UpdatePartial(cl.Partial)
		}
	}
}

// FetchStats implements Engine.
func (e *StreamEngine) FetchStats() FetchStats { return e.stats }
