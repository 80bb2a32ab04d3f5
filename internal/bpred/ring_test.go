package bpred

import (
	"bytes"
	"testing"

	"streamfetch/internal/ckpt/wire"
	"streamfetch/internal/isa"
	"streamfetch/internal/xrand"
)

// refPath is the modulo-indexed path ring with the per-call DOLC mix that
// PathHist and DOLC.Hash replaced: the oracle of TestPathHistDifferential.
type refPath struct {
	ring []uint64
	pos  int
}

func (p *refPath) push(v uint64) {
	p.pos = (p.pos + 1) % len(p.ring)
	p.ring[p.pos] = v
}

func (p *refPath) at(i int) uint64 {
	n := len(p.ring)
	return p.ring[((p.pos-i)%n+n)%n]
}

func (p *refPath) copyFrom(src *refPath) {
	copy(p.ring, src.ring)
	p.pos = src.pos
}

func refHash(d DOLC, hist *refPath, current uint64, indexBits uint) uint64 {
	var acc uint64 = 0xcbf29ce484222325
	put := func(v uint64, bits uint) {
		v *= 0x9e3779b97f4a7c15
		v ^= v >> 29
		v &= (1 << bits) - 1
		acc = (acc ^ v) * 0x100000001b3
	}
	put(current>>2, d.Current)
	depth := min(d.Depth, len(hist.ring))
	if depth > 0 {
		put(hist.at(0)>>2, d.Last)
		for i := 1; i < depth; i++ {
			put(hist.at(i)>>2, d.Older)
		}
	}
	mask := uint64(1)<<indexBits - 1
	out := acc & mask
	acc >>= indexBits
	for acc != 0 {
		out ^= acc & mask
		acc >>= indexBits
	}
	return out
}

// TestPathHistDifferential: for depths 1-16 under random pushes, recoveries
// (CopyFrom), clones and checkpoint round trips, PathHist's elements and
// DOLC hashes match the modulo ring with the per-call mix, for hash
// depths shorter than, equal to and longer than the ring.
func TestPathHistDifferential(t *testing.T) {
	rng := xrand.New(11)
	for depth := 1; depth <= 16; depth++ {
		spec, ret := NewPathHist(depth), NewPathHist(depth)
		rspec := &refPath{ring: make([]uint64, depth)}
		rret := &refPath{ring: make([]uint64, depth)}
		dolcs := []DOLC{
			{Depth: depth, Older: 2, Last: 4, Current: 10},
			{Depth: max(depth-3, 0), Older: 7, Last: 9, Current: 9},
			{Depth: depth + 5, Older: 1, Last: 64, Current: 64},
		}
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(20); {
			case r == 0: // misprediction recovery
				spec.CopyFrom(ret)
				rspec.copyFrom(rret)
			case r == 1: // clone and continue on the copy
				spec = spec.Clone()
			case r == 2: // checkpoint round trip
				buf := spec.AppendState(nil)
				fresh := NewPathHist(depth)
				if err := fresh.LoadState(wire.NewReader(buf)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fresh.AppendState(nil), buf) {
					t.Fatal("checkpoint encoding changed across a round trip")
				}
				spec = fresh
			case r < 8:
				v := rng.Uint64()
				ret.Push(v)
				rret.push(v)
			default:
				v := rng.Uint64()
				spec.Push(v)
				rspec.push(v)
			}
			for i := 0; i < depth; i++ {
				if spec.At(i) != rspec.at(i) {
					t.Fatalf("depth %d step %d: At(%d) = %#x, want %#x", depth, step, i, spec.At(i), rspec.at(i))
				}
			}
			cur := rng.Uint64()
			for _, d := range dolcs {
				for _, bits := range []uint{9, 11, 14} {
					if got, want := d.Hash(spec, cur, bits), refHash(d, rspec, cur, bits); got != want {
						t.Fatalf("depth %d step %d %+v: Hash = %#x, want %#x", depth, step, d, got, want)
					}
				}
			}
		}
	}
}

// TestRASDifferential: the conditionally wrapped stack matches a modulo
// one under random pushes, pops, checkpoint restores and copies.
func TestRASDifferential(t *testing.T) {
	rng := xrand.New(12)
	for depth := 1; depth <= 16; depth++ {
		r := NewRAS(depth)
		ref := make([]isa.Addr, depth)
		top := 0
		var ck RASCheckpoint
		var refTop int
		var refVal isa.Addr
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				a := isa.Addr(rng.Uint64())
				r.Push(a)
				ref[top] = a
				top = (top + 1) % depth
			case op < 7:
				top = (top - 1 + depth) % depth
				if got := r.Pop(); got != ref[top] {
					t.Fatalf("depth %d step %d: Pop = %#x, want %#x", depth, step, got, ref[top])
				}
			case op == 7:
				ck = r.Save()
				refTop, refVal = top, ref[(top-1+depth)%depth]
			case op == 8:
				r.Restore(ck)
				top = refTop
				ref[(top-1+depth)%depth] = refVal
			default:
				c := NewRAS(depth)
				c.CopyFrom(r)
				r = c
			}
			if r.top != top {
				t.Fatalf("depth %d step %d: top %d, want %d", depth, step, r.top, top)
			}
			for i := range ref {
				if r.entries[i] != ref[i] {
					t.Fatalf("depth %d step %d: entry %d = %#x, want %#x", depth, step, i, r.entries[i], ref[i])
				}
			}
		}
	}
}

func BenchmarkDOLCHash(b *testing.B) {
	d := DOLC{Depth: 12, Older: 2, Last: 4, Current: 10}
	h := NewPathHist(12)
	rng := xrand.New(5)
	for i := 0; i < 12; i++ {
		h.Push(rng.Uint64())
	}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= d.Hash(h, uint64(i)<<2, 11)
	}
	_ = sink
}
