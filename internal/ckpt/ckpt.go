// Package ckpt defines the versioned binary snapshot that carries a
// shard's warm microarchitectural state across runs: the cache
// hierarchy, the deterministic load address generator, and the fetch
// engine's warm state as an opaque section keyed by engine name.
//
// A snapshot is taken at an interval boundary by the functional-warming
// walk (sim.Processor.WarmPrefix), and every mid-trace interval opens by
// restoring one before its first timed cycle. Stored in the artifact
// store under a key derived from the preparation inputs and the boundary
// position, it lets a later run open the same boundary in O(state)
// instead of walking O(prefix) instructions. Stored snapshots are pure
// cache entries: any decode failure — truncation, corruption, a version
// or geometry mismatch — is a clean miss that sends the caller back to
// the warming walk, never an error surfaced to users.
//
// Layout: the magic "SFCK", a CRC32-C of everything after it in a fixed
// 8-byte little-endian slot, then the version, the boundary, the engine
// name and three length-prefixed sections, every integer a varint
// (package wire):
//
//   - hierarchy: per cache its LRU clock and geometry, then per way its
//     tag above the set-index bits and its LRU distance from the clock
//     (an invalid way is tag 0 at distance clock);
//   - generator: the load address generator's per-slot counters, sparse —
//     only the memory instructions the walk executed, as (slot, count)
//     pairs (see pipeline.LoadAddrGen.AppendState);
//   - engine: the fetch engine's tables, opaque here.
//
// A 176.gcc snapshot at a 4M-instruction boundary (optimized layout,
// width 8) is 137 KB with streams: hierarchy 80 KB (its size set by the
// geometry and what the caches hold), engine 53 KB, generator 2.9 KB for
// the 812 memory instructions executed (of 281,640 code slots). The
// engine section is 47 KB for ev8, 51 KB for ftb and 123 KB for tcache.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"streamfetch/internal/cache"
	"streamfetch/internal/ckpt/wire"
	"streamfetch/internal/pipeline"
)

// Version is the snapshot format version. Bump it on any change to the
// layout of the encoded state; old blobs then decode as misses, and since
// checkpoint store keys hash the version, they are never looked up. It
// versions the encoding only: a change to what warming computes, with
// the format unchanged, bumps the model version that the same keys carry
// (streamfetch's modelVersion) instead.
// Version 2 encodes the generator's counters sparsely and drops the
// per-way valid byte of version 1's cache sections. Version 3 writes
// every integer as a varint, a cache way as its tag above the set-index
// bits and its LRU distance from the clock, and a 2-bit counter table
// four counters a byte. Version 4 writes a stored trace instruction's
// address once, where version 3 wrote it twice.
const Version = 4

// magic guards against feeding arbitrary store blobs into the decoder.
const magic = "SFCK"

// ErrVersion is reported for a snapshot with an unknown format version.
var ErrVersion = errors.New("ckpt: unsupported snapshot version")

// ErrChecksum is reported when a snapshot's payload fails integrity
// verification. The sections encode raw table contents, so most bit
// flips are structurally valid; without the envelope checksum they
// would restore silently wrong state instead of missing cleanly.
var ErrChecksum = errors.New("ckpt: snapshot checksum mismatch")

// castagnoli is the CRC32-C table for the envelope checksum (hardware-
// accelerated on current CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is a decoded checkpoint. The engine section stays opaque
// here — the caller matches EngineName against the engine it built and
// hands Engine to its LoadWarmState.
type Snapshot struct {
	// Boundary is the trace position (instructions from trace start) the
	// state was captured at.
	Boundary uint64
	// EngineName identifies the fetch engine that produced Engine.
	EngineName string
	// Engine is the engine's warm state (Engine.AppendWarmState encoding).
	Engine []byte

	hier []byte
	gen  []byte
}

// Encode serializes a checkpoint: the hierarchy and generator state are
// captured via their AppendState methods, the engine section is taken
// as already-encoded bytes. dst grows once, to the snapshot's length,
// and the sections are appended into it in place.
func Encode(dst []byte, boundary uint64, hier *cache.Hierarchy, gen *pipeline.LoadAddrGen, engineName string, engine []byte) []byte {
	hierLen, genLen := hier.StateLen(), gen.StateLen()
	n := len(magic) + 8 + wire.SizeU64(Version) + wire.SizeU64(boundary) + wire.SizeBytes(len(engineName)) +
		wire.SizeBytes(hierLen) + wire.SizeBytes(genLen) + wire.SizeBytes(len(engine))
	// One make, not slices.Grow: under the race detector that appends a
	// zeroed slice of n bytes, allocating the snapshot twice.
	if cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = append(dst, magic...)
	// Checksum placeholder, filled over everything that follows it.
	sumAt := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, 0)
	dst = wire.AppendU64(dst, Version)
	dst = wire.AppendU64(dst, boundary)
	dst = wire.AppendString(dst, engineName)
	dst = appendSection(dst, hierLen, hier.AppendState)
	dst = appendSection(dst, genLen, gen.AppendState)
	dst = wire.AppendBytes(dst, engine)
	sum := crc32.Checksum(dst[sumAt+8:], castagnoli)
	binary.LittleEndian.PutUint64(dst[sumAt:], uint64(sum))
	return dst
}

// appendSection appends a section of n bytes as wire.AppendBytes would,
// but appends its state in place behind the length prefix. n is the
// component's StateLen; a state of another length would frame a snapshot
// that never decodes, so it panics instead.
func appendSection(dst []byte, n int, appendState func([]byte) []byte) []byte {
	dst = wire.AppendU64(dst, uint64(n))
	at := len(dst)
	if dst = appendState(dst); len(dst)-at != n {
		panic(fmt.Sprintf("ckpt: section of %d bytes, StateLen %d", len(dst)-at, n))
	}
	return dst
}

// Decode parses an encoded snapshot. It never panics on corrupt input;
// every malformed byte sequence decodes into an error.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+8 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("ckpt: bad magic")
	}
	sum := binary.LittleEndian.Uint64(data[len(magic):])
	if crc32.Checksum(data[len(magic)+8:], castagnoli) != uint32(sum) || sum>>32 != 0 {
		return nil, ErrChecksum
	}
	r := wire.NewReader(data[len(magic)+8:])
	if v := r.U64(); r.Err() == nil && v != Version {
		return nil, ErrVersion
	}
	s := &Snapshot{}
	s.Boundary = r.U64()
	s.EngineName = r.String()
	s.hier = r.Bytes()
	s.gen = r.Bytes()
	s.Engine = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// Apply restores the hierarchy and generator sections onto components of
// identical geometry. On error the components may be partially restored
// and the caller must discard them (rebuild and take the state from the
// warming walk). The engine section is applied separately by the caller.
func (s *Snapshot) Apply(hier *cache.Hierarchy, gen *pipeline.LoadAddrGen) error {
	hr := wire.NewReader(s.hier)
	if err := hier.LoadState(hr); err != nil {
		return err
	}
	if err := hr.Done(); err != nil {
		return err
	}
	gr := wire.NewReader(s.gen)
	if err := gen.LoadState(gr); err != nil {
		return err
	}
	return gr.Done()
}
