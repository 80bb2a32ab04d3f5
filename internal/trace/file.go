// Binary trace file format. Traces can be written once and replayed by many
// simulations, mirroring the paper's trace-driven methodology. Both codecs
// stream: the Writer encodes blocks as they arrive and the FileSource
// decodes incrementally, so traces far larger than RAM can be written and
// replayed in constant memory.
//
// The current format (STRMTRC2) is a magic header, the benchmark name, then
// chunks of zig-zag varint deltas of block IDs (which compresses loopy
// traces well), a zero-length terminator chunk, and a footer carrying the
// total instruction and block counts — a trailer rather than a header
// because a streaming writer only knows the totals at the end. An optional
// chunk index follows the footer (older readers stop at the footer and
// never see it): per-chunk stream offsets, block/instruction positions and
// decoder state, which is what lets Skip seek straight to an interval
// instead of decoding everything before it. The retired count-prefixed
// format (STRMTRC1) is no longer read; re-record such traces with
// cmd/tracegen.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"streamfetch/internal/cfg"
)

const (
	magicV2 = "STRMTRC2"
	// indexMagic terminates the optional chunk index trailing the footer.
	// The index is backward-compatible both ways: old readers stop at the
	// footer and never see it, and index-less files simply skip linearly.
	indexMagic = "STRMIDX1"
	maxName    = 1 << 10
	// chunkBlocks is the writer's encoding granularity. Chunks exist so a
	// reader can tell block records from the footer without a count up
	// front (and, with the index, so Skip can seek); their size trades
	// header overhead (1-2 bytes per chunk) against buffering and seek
	// granularity.
	chunkBlocks = 4096
)

// chunkRef locates one chunk for seeking: the stream offset of its header
// and the decoder state on entry (blocks and instructions already consumed,
// and the running block ID the zig-zag deltas continue from).
type chunkRef struct {
	off    uint64
	blocks uint64
	insts  uint64
	prev   int64
}

// chunkIndex is the decoded footer index of a seekable trace file.
type chunkIndex struct {
	totalInsts  uint64
	totalBlocks uint64
	entries     []chunkRef
}

// find returns the last chunk whose starting instruction count is at most
// target (nil when even the first chunk starts beyond it).
func (ix *chunkIndex) find(target uint64) *chunkRef {
	j := sort.Search(len(ix.entries), func(k int) bool {
		return ix.entries[k].insts > target
	}) - 1
	if j < 0 {
		return nil
	}
	return &ix.entries[j]
}

// Writer streams a block sequence into the binary trace format. Blocks are
// encoded as they are appended; nothing is buffered beyond the current
// chunk, so arbitrarily long traces are written in constant memory. The
// caller must Finish to emit the footer; a trace without one is detected as
// truncated on read.
type Writer struct {
	bw       *bufio.Writer
	chunk    []cfg.BlockID
	prev     int64
	blocks   uint64
	finished bool

	// Index state. off is the stream offset written so far; when a
	// program is bound the writer records one chunkRef per chunk and
	// emits the seek index after the footer.
	off        uint64
	prog       *cfg.Program
	chunkInsts uint64
	instsSoFar uint64
	entries    []chunkRef
}

// NewWriter writes the header for a trace named name and returns the
// streaming encoder.
func NewWriter(w io.Writer, name string) (*Writer, error) {
	if len(name) > maxName {
		return nil, fmt.Errorf("trace: name too long (%d bytes)", len(name))
	}
	tw := &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
	if err := tw.writeString(magicV2); err != nil {
		return nil, err
	}
	if err := tw.writeUvarint(uint64(len(name))); err != nil {
		return nil, err
	}
	if err := tw.writeString(name); err != nil {
		return nil, err
	}
	return tw, nil
}

// BindProgram supplies per-block instruction counts so the writer records
// the chunk index that makes the file seekable (Skip by chunk rather than
// linear decode). Bind before the first Append; without it the file is
// still valid, just index-less. A block outside the program disables the
// index rather than failing the write.
func (w *Writer) BindProgram(p *cfg.Program) { w.prog = p }

func (w *Writer) writeString(s string) error {
	n, err := w.bw.WriteString(s)
	w.off += uint64(n)
	return err
}

func (w *Writer) writeUvarint(v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	nw, err := w.bw.Write(buf[:n])
	w.off += uint64(nw)
	return err
}

func (w *Writer) writeVarint(v int64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	nw, err := w.bw.Write(buf[:n])
	w.off += uint64(nw)
	return err
}

// Append adds one block to the trace.
func (w *Writer) Append(id cfg.BlockID) error {
	if w.finished {
		return errors.New("trace: Append after Finish")
	}
	if w.prog != nil {
		if int(id) < 0 || int(id) >= len(w.prog.Blocks) {
			// Trace does not match the bound program: write a valid
			// index-less file instead of failing.
			w.prog, w.entries, w.chunkInsts, w.instsSoFar = nil, nil, 0, 0
		} else {
			w.chunkInsts += uint64(w.prog.Blocks[id].NInsts)
		}
	}
	w.chunk = append(w.chunk, id)
	if len(w.chunk) >= chunkBlocks {
		return w.flushChunk()
	}
	return nil
}

// Blocks returns the number of blocks appended so far.
func (w *Writer) Blocks() uint64 { return w.blocks + uint64(len(w.chunk)) }

// Indexed reports whether the writer is recording the chunk index (a
// program is bound and every appended block belonged to it).
func (w *Writer) Indexed() bool { return w.prog != nil }

func (w *Writer) flushChunk() error {
	if len(w.chunk) == 0 {
		return nil
	}
	if w.prog != nil {
		w.entries = append(w.entries, chunkRef{
			off:    w.off,
			blocks: w.blocks,
			insts:  w.instsSoFar,
			prev:   w.prev,
		})
	}
	if err := w.writeUvarint(uint64(len(w.chunk))); err != nil {
		return err
	}
	for _, id := range w.chunk {
		delta := int64(id) - w.prev
		w.prev = int64(id)
		if err := w.writeVarint(delta); err != nil {
			return err
		}
	}
	w.blocks += uint64(len(w.chunk))
	w.instsSoFar += w.chunkInsts
	w.chunkInsts = 0
	w.chunk = w.chunk[:0]
	return nil
}

// Finish flushes the remaining blocks and writes the terminator and footer;
// totalInsts is the trace's CFG-level instruction count. When a program is
// bound the chunk index follows the footer (invisible to pre-index
// readers, which stop at the footer). The Writer is unusable afterwards.
func (w *Writer) Finish(totalInsts uint64) error {
	if w.finished {
		return errors.New("trace: Finish called twice")
	}
	w.finished = true
	if err := w.flushChunk(); err != nil {
		return err
	}
	if err := w.writeUvarint(0); err != nil { // terminator chunk
		return err
	}
	if err := w.writeUvarint(totalInsts); err != nil {
		return err
	}
	if err := w.writeUvarint(w.blocks); err != nil {
		return err
	}
	if w.prog != nil {
		if err := w.writeIndex(totalInsts); err != nil {
			return err
		}
	}
	return w.bw.Flush()
}

// writeIndex emits the seek index: a delta-encoded chunkRef per chunk plus
// the totals, then a fixed 16-byte trailer (section length + magic) so a
// reader can find the section from the end of the file.
func (w *Writer) writeIndex(totalInsts uint64) error {
	start := w.off
	if err := w.writeUvarint(totalInsts); err != nil {
		return err
	}
	if err := w.writeUvarint(w.blocks); err != nil {
		return err
	}
	if err := w.writeUvarint(uint64(len(w.entries))); err != nil {
		return err
	}
	var last chunkRef
	for _, e := range w.entries {
		if err := w.writeUvarint(e.off - last.off); err != nil {
			return err
		}
		if err := w.writeUvarint(e.blocks - last.blocks); err != nil {
			return err
		}
		if err := w.writeUvarint(e.insts - last.insts); err != nil {
			return err
		}
		if err := w.writeVarint(e.prev - last.prev); err != nil {
			return err
		}
		last = e
	}
	var trailer [16]byte
	binary.LittleEndian.PutUint64(trailer[:8], w.off-start)
	copy(trailer[8:], indexMagic)
	n, err := w.bw.Write(trailer[:])
	w.off += uint64(n)
	return err
}

// Write serializes t to w in the current format.
func (t *Trace) Write(w io.Writer) error {
	tw, err := NewWriter(w, t.Name)
	if err != nil {
		return err
	}
	for _, id := range t.Blocks {
		if err := tw.Append(id); err != nil {
			return err
		}
	}
	return tw.Finish(t.Insts)
}

// FileSource incrementally decodes a binary trace stream (either format).
// It implements Source; decode errors (including truncation) surface from
// Err and Close once NextBatch returns 0.
type FileSource struct {
	br   *bufio.Reader
	raw  io.Reader // what br wraps (needed to reset after a seek)
	file io.Closer // underlying file when opened via Open
	path string    // the file's path when opened via Open: Fork reopens it

	name string
	prev int64
	read uint64 // blocks consumed from the stream (delivered or skipped)
	done bool
	err  error

	remaining uint64 // blocks left in the current chunk
	insts     uint64 // from the footer (or index)
	exact     bool

	// Skip support: the bound program supplies block lengths, the index
	// (when the file carries one) supplies seek targets, and the pending
	// slot holds one decoded-but-undelivered block (Skip peeks at the
	// boundary block without consuming it).
	prog        *cfg.Program
	instsRead   uint64 // CFG insts consumed, maintained once prog is bound
	pending     [1]cfg.BlockID
	havePending bool
	index       *chunkIndex
	seeker      io.Seeker
}

// NewReader reads the trace header from r and returns a streaming source
// over its blocks.
func NewReader(r io.Reader) (*FileSource, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	got := make([]byte, len(magicV2))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(got) != magicV2 {
		return nil, fmt.Errorf("trace: bad magic %q (only %s is read)", got, magicV2)
	}
	s := &FileSource{br: br, raw: r}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > maxName {
		return nil, fmt.Errorf("trace: name length %d exceeds limit", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	s.name = string(name)
	return s, nil
}

// Open opens a trace file as a streaming source; Close closes the file.
// When the file carries a chunk index (written by an index-bound Writer)
// the source is seekable — Skip jumps by chunk instead of decoding
// linearly — and the totals are exact immediately. Index-less files
// still replay and Skip, linearly.
func Open(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	idx := tryReadIndex(f) // uses ReadAt only: the read offset stays at 0
	s, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.file = f
	s.path = path
	s.seeker = f
	if idx != nil {
		s.index = idx
		s.insts = idx.totalInsts
		s.exact = true
	}
	return s, nil
}

// tryReadIndex probes f for the trailing chunk index. Any shortfall —
// file too small, missing magic, malformed section — yields nil: the file
// is then treated as index-less and skipped linearly, never failed.
func tryReadIndex(f *os.File) *chunkIndex {
	st, err := f.Stat()
	if err != nil {
		return nil
	}
	size := st.Size()
	if size < 16 {
		return nil
	}
	var trailer [16]byte
	if _, err := f.ReadAt(trailer[:], size-16); err != nil {
		return nil
	}
	if string(trailer[8:]) != indexMagic {
		return nil
	}
	secLen := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if secLen <= 0 || secLen > size-16 {
		return nil
	}
	buf := make([]byte, secLen)
	if _, err := f.ReadAt(buf, size-16-secLen); err != nil {
		return nil
	}
	return parseIndex(buf, uint64(size))
}

// parseIndex decodes the index section; nil on any inconsistency.
func parseIndex(buf []byte, fileSize uint64) *chunkIndex {
	r := bytes.NewReader(buf)
	uv := func() (uint64, bool) {
		v, err := binary.ReadUvarint(r)
		return v, err == nil
	}
	ix := &chunkIndex{}
	var n uint64
	var ok bool
	if ix.totalInsts, ok = uv(); !ok {
		return nil
	}
	if ix.totalBlocks, ok = uv(); !ok {
		return nil
	}
	if n, ok = uv(); !ok || n > ix.totalBlocks/chunkBlocks+1 || n > uint64(len(buf)) {
		return nil
	}
	ix.entries = make([]chunkRef, 0, n)
	var last chunkRef
	for i := uint64(0); i < n; i++ {
		var d [3]uint64
		for j := range d {
			if d[j], ok = uv(); !ok {
				return nil
			}
		}
		pd, err := binary.ReadVarint(r)
		if err != nil {
			return nil
		}
		last = chunkRef{
			off:    last.off + d[0],
			blocks: last.blocks + d[1],
			insts:  last.insts + d[2],
			prev:   last.prev + pd,
		}
		if last.off >= fileSize || last.blocks > ix.totalBlocks || last.insts > ix.totalInsts ||
			last.prev < 0 || last.prev > math.MaxInt32 {
			return nil
		}
		ix.entries = append(ix.entries, last)
	}
	return ix
}

// Bind associates the program the trace was recorded against, giving the
// source the per-block instruction counts Skip needs. Bind before the
// first NextBatch or Skip.
func (s *FileSource) Bind(p *cfg.Program) { s.prog = p }

// Seekable reports whether Skip can seek (an indexed file opened from
// disk) rather than decode linearly.
func (s *FileSource) Seekable() bool { return s.index != nil && s.seeker != nil }

// TotalBlocks returns the trace's block count and whether it is exact
// before EOF (indexed files know it up front).
func (s *FileSource) TotalBlocks() (uint64, bool) {
	switch {
	case s.index != nil:
		return s.index.totalBlocks, true
	default:
		return s.read, s.done && s.err == nil
	}
}

// blockInsts returns the CFG instruction count of id under the bound
// program, failing the stream on a block outside it.
func (s *FileSource) blockInsts(id cfg.BlockID) (uint64, bool) {
	if id < 0 || int(id) >= len(s.prog.Blocks) {
		s.done = true
		s.err = fmt.Errorf("trace: block %d outside the bound program (%d blocks)", id, len(s.prog.Blocks))
		return 0, false
	}
	return uint64(s.prog.Blocks[id].NInsts), true
}

// Skip fast-forwards past whole blocks totalling at most n instructions.
// With an index the skip seeks to the last chunk boundary at or before
// the target and decodes the remainder; without one (index-less files,
// plain readers) it decodes and discards linearly. Requires Bind.
func (s *FileSource) Skip(n uint64) (uint64, error) {
	if s.done || n == 0 {
		return 0, s.err
	}
	if s.prog == nil {
		return 0, errors.New("trace: FileSource.Skip needs a program (Bind)")
	}
	start := s.instsRead
	target := satAdd(start, n)
	if s.index != nil && s.seeker != nil {
		// A chunk past the read position also lies past a pending block,
		// which the seek then skips with the rest.
		if e := s.index.find(target); e != nil && e.blocks > s.read {
			if _, err := s.seeker.Seek(int64(e.off), io.SeekStart); err != nil {
				s.done = true
				s.err = fmt.Errorf("trace: seeking chunk at offset %d: %w", e.off, err)
				return 0, s.err
			}
			s.br.Reset(s.raw)
			s.prev = e.prev
			s.read = e.blocks
			s.instsRead = e.insts
			s.remaining = 0
			s.havePending = false
		}
	}
	for {
		id, ok := s.peek()
		if !ok {
			break
		}
		ni, ok := s.blockInsts(id)
		if !ok {
			break
		}
		if satAdd(s.instsRead, ni) > target {
			break
		}
		s.havePending = false
		s.instsRead += ni
	}
	return s.instsRead - start, s.err
}

// Fork reopens the file and skips the new source to where s stands:
// seeking through the chunk index, or decoding the prefix again in an
// index-less file. Only a bound source opened by path (Open) forks.
func (s *FileSource) Fork() (Source, error) {
	if s.path == "" || s.prog == nil {
		return nil, errors.New("trace: only a bound trace file opened by path forks")
	}
	f, err := Open(s.path)
	if err != nil {
		return nil, err
	}
	f.Bind(s.prog)
	if _, err := f.Skip(s.instsRead); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// peek decodes the next block without consuming it.
func (s *FileSource) peek() (cfg.BlockID, bool) {
	if !s.havePending {
		if s.decode(s.pending[:]) == 0 {
			return cfg.NoBlock, false
		}
		s.havePending = true
	}
	return s.pending[0], true
}

// startChunk ensures at least one undecoded block record remains in the
// current chunk, reading the next chunk header — or the terminator and
// footer — as needed. It returns false at end of stream or on error.
func (s *FileSource) startChunk() bool {
	if s.done {
		return false
	}
	if s.remaining > 0 {
		return true
	}
	n, err := binary.ReadUvarint(s.br)
	if err != nil {
		s.fail(fmt.Errorf("trace: reading chunk header after block %d: %w", s.read, err))
		return false
	}
	if n == 0 { // terminator: read and validate the footer
		s.done = true
		if s.insts, err = binary.ReadUvarint(s.br); err != nil {
			s.err = fmt.Errorf("trace: reading instruction count: %w", err)
			return false
		}
		count, err := binary.ReadUvarint(s.br)
		if err != nil {
			s.err = fmt.Errorf("trace: reading block count: %w", err)
			return false
		}
		if count != s.read {
			s.err = fmt.Errorf("trace: footer says %d blocks, decoded %d", count, s.read)
			return false
		}
		s.exact = true
		return false
	}
	s.remaining = n
	return true
}

// decode fills dst with the next block records of the stream, decoding
// whole chunk remainders in one pass, and returns how many it decoded:
// fewer than len(dst) only at the end of the stream or on a decode error.
func (s *FileSource) decode(dst []cfg.BlockID) int {
	n := 0
	for n < len(dst) && s.startChunk() {
		k := min(uint64(len(dst)-n), s.remaining)
		for range k {
			delta, err := binary.ReadVarint(s.br)
			if err != nil {
				s.fail(fmt.Errorf("trace: reading block %d: %w", s.read, err))
				return n
			}
			s.prev += delta
			// BlockID is int32: anything outside its range is corrupt, and
			// letting it through would wrap negative in the conversion.
			if s.prev < 0 || s.prev > math.MaxInt32 {
				s.fail(fmt.Errorf("trace: block ID %d out of range at record %d", s.prev, s.read))
				return n
			}
			s.remaining--
			s.read++
			dst[n] = cfg.BlockID(s.prev)
			n++
		}
	}
	return n
}

// NextBatch fills dst with the next blocks of the trace: the block a Skip
// peeked at, then freshly decoded ones. A decode or bound-program failure
// ends the batch early; the error surfaces from Err and Close.
func (s *FileSource) NextBatch(dst []cfg.BlockID) int {
	n := 0
	if s.havePending && len(dst) > 0 {
		dst[0], s.havePending = s.pending[0], false
		n = 1
	}
	n += s.decode(dst[n:])
	if s.prog != nil {
		for i, id := range dst[:n] {
			ni, ok := s.blockInsts(id)
			if !ok {
				return i
			}
			s.instsRead += ni
		}
	}
	return n
}

func (s *FileSource) fail(err error) {
	s.done = true
	s.err = err
}

// Name returns the benchmark name from the header.
func (s *FileSource) Name() string { return s.name }

// TotalInsts returns the trace's instruction count: exact up front for an
// indexed file opened from disk, and otherwise exact once the footer has
// been read (0 before that — the on-disk trace carries no running count).
func (s *FileSource) TotalInsts() (uint64, bool) { return s.insts, s.exact }

// Err returns the first decode error encountered (nil on a clean stream).
// A truncated trace — one whose footer is missing or inconsistent — is an
// error, not a short trace.
func (s *FileSource) Err() error { return s.err }

// Close releases the underlying file (when opened via Open) and returns the
// sticky decode error, if any.
func (s *FileSource) Close() error {
	if s.file != nil {
		cerr := s.file.Close()
		s.file = nil
		if s.err == nil {
			s.err = cerr
		}
	}
	return s.err
}

// Read deserializes a trace written by Write, materializing it in memory.
// Callers that only iterate should use NewReader (or Open) instead.
func Read(r io.Reader) (*Trace, error) {
	s, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	return Drain(s)
}
