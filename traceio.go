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
// format, chunk index included, without materializing it, so arbitrarily
// long traces are written in memory independent of their length. A
// session replaying a trace file recorded for another benchmark fails
// (see WithTraceFile). The context cancels long exports.
func (s *Session) WriteTrace(ctx context.Context, w io.Writer) (TraceInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.benchmark == "" {
		return TraceInfo{}, fmt.Errorf("streamfetch: empty benchmark name")
	}
	prog, err := s.Program()
	if err != nil {
		return TraceInfo{}, err
	}
	src, err := s.newSource(prog)
	if err != nil {
		return TraceInfo{}, err
	}
	defer src.Close()
	tw, err := trace.NewWriter(w, src.Name(), prog)
	if err != nil {
		return TraceInfo{}, err
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
	return TraceInfo{Name: src.Name(), Blocks: tw.Blocks(), Insts: insts}, nil
}

// InspectTrace incrementally decodes a binary trace stream and returns its
// summary without materializing the blocks.
func InspectTrace(r io.Reader) (TraceInfo, error) {
	src, err := trace.NewReader(r)
	if err != nil {
		return TraceInfo{}, err
	}
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

// InspectTraceFile summarizes a trace file by path from its chunk index,
// without decoding the stream. A file without a valid index is refused
// (see trace.Open).
func InspectTraceFile(path string) (TraceInfo, error) {
	src, err := trace.Open(path)
	if err != nil {
		return TraceInfo{}, err
	}
	defer src.Close()
	insts, _ := src.TotalInsts()
	blocks, _ := src.TotalBlocks()
	return TraceInfo{Name: src.Name(), Blocks: blocks, Insts: insts}, nil
}
