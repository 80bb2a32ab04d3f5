// Public trace I/O: streaming export of a session's trace to the binary
// trace format, and inspection of existing trace artifacts. Both paths are
// incremental — blocks are encoded or decoded as they flow — so traces far
// larger than RAM are written and summarized in constant memory.
package streamfetch

import (
	"context"
	"fmt"
	"io"

	"streamfetch/internal/trace"
)

// TraceInfo summarizes a binary trace artifact.
type TraceInfo struct {
	Name   string `json:"name"`
	Blocks uint64 `json:"blocks"`
	Insts  uint64 `json:"insts"`
	// Seekable reports whether the file carries the chunk index that
	// lets sharded runs seek to an interval instead of decoding linearly
	// (only known when inspecting a file by path).
	Seekable bool `json:"seekable,omitempty"`
}

// MeanBlockLen returns the mean dynamic basic-block length in instructions
// (0 for an empty trace).
func (i TraceInfo) MeanBlockLen() float64 {
	if i.Blocks == 0 {
		return 0
	}
	return float64(i.Insts) / float64(i.Blocks)
}

// writeTraceCheck is how often (in blocks) WriteTrace polls the context.
const writeTraceCheck = 1 << 16

// WriteTrace streams the session's trace source to w in the binary trace
// format without materializing it, so arbitrarily long traces are written
// in memory independent of their length. The context cancels long exports.
func (s *Session) WriteTrace(ctx context.Context, w io.Writer) (TraceInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.benchmark == "" {
		return TraceInfo{}, fmt.Errorf("streamfetch: empty benchmark name")
	}
	src, err := s.Source()
	if err != nil {
		return TraceInfo{}, err
	}
	defer src.Close()
	tw, err := trace.NewWriter(w, src.Name())
	if err != nil {
		return TraceInfo{}, err
	}
	// Bind the benchmark program so the writer records the chunk index:
	// the written file then supports seeking sharded replays. The index's
	// instruction offsets come from the program's block lengths, so bind
	// only when the trace actually records this session's benchmark — a
	// foreign trace (replayed from another benchmark's file) is written
	// index-less rather than with silently wrong offsets.
	if src.Name() == s.benchmark {
		if prog, perr := s.Program(); perr == nil {
			tw.BindProgram(prog)
		}
	}
	if err := ctx.Err(); err != nil {
		return TraceInfo{}, err
	}
	for id := range trace.Blocks(src) {
		if err := tw.Append(id); err != nil {
			return TraceInfo{}, err
		}
		if tw.Blocks()%writeTraceCheck == 0 {
			if err := ctx.Err(); err != nil {
				return TraceInfo{}, err
			}
		}
	}
	if err := src.Close(); err != nil {
		return TraceInfo{}, fmt.Errorf("streamfetch: reading trace: %w", err)
	}
	insts, _ := src.TotalInsts()
	if err := tw.Finish(insts); err != nil {
		return TraceInfo{}, err
	}
	return TraceInfo{
		Name:     src.Name(),
		Blocks:   tw.Blocks(),
		Insts:    insts,
		Seekable: tw.Indexed(),
	}, nil
}

// InspectTrace incrementally decodes a binary trace stream and returns its
// summary without materializing the blocks.
func InspectTrace(r io.Reader) (TraceInfo, error) {
	src, err := trace.NewReader(r)
	if err != nil {
		return TraceInfo{}, err
	}
	return inspect(src)
}

// InspectTraceFile summarizes a trace file by path, reporting whether it is
// seekable. An indexed file answers from the index without decoding the
// stream; anything else decodes once, like InspectTrace.
func InspectTraceFile(path string) (TraceInfo, error) {
	src, err := trace.Open(path)
	if err != nil {
		return TraceInfo{}, err
	}
	defer src.Close()
	if src.Seekable() {
		insts, _ := src.TotalInsts()
		blocks, _ := src.TotalBlocks()
		return TraceInfo{Name: src.Name(), Blocks: blocks, Insts: insts, Seekable: true}, nil
	}
	return inspect(src)
}

// inspect decodes src to its end, counting blocks.
func inspect(src *trace.FileSource) (TraceInfo, error) {
	var blocks uint64
	for range trace.Blocks(src) {
		blocks++
	}
	if err := src.Err(); err != nil {
		return TraceInfo{}, err
	}
	insts, _ := src.TotalInsts()
	return TraceInfo{Name: src.Name(), Blocks: blocks, Insts: insts}, nil
}
