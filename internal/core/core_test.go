package core

import (
	"testing"
	"testing/quick"

	"streamfetch/internal/isa"
	"streamfetch/internal/xrand"
)

func TestPredictorLearnsSequence(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	streams := []Stream{
		{Start: 0x1000, Len: 12, Type: isa.BranchCond, Next: 0x2000},
		{Start: 0x2000, Len: 20, Type: isa.BranchUncond, Next: 0x3000},
		{Start: 0x3000, Len: 8, Type: isa.BranchCond, Next: 0x1000},
	}
	// Warm up.
	for round := 0; round < 4; round++ {
		for _, s := range streams {
			got, hit := p.Predict(s.Start)
			mis := !hit || got != s
			p.OnPredict(s.Start)
			p.Update(s, mis)
		}
	}
	for _, s := range streams {
		got, hit := p.Predict(s.Start)
		if !hit {
			t.Fatalf("miss for warmed stream %v", s.Start)
		}
		if got != s {
			t.Fatalf("Predict(%v) = %+v, want %+v", s.Start, got, s)
		}
		p.OnPredict(s.Start)
		p.Update(s, false)
	}
}

func TestPredictorPathCorrelation(t *testing.T) {
	// The same stream start is followed by different successors depending
	// on the preceding path: A X B vs A Y B', alternating. The
	// address-indexed table alone flip-flops; the path table must
	// disambiguate.
	p := NewPredictor(DefaultPredictorConfig())
	a1 := Stream{Start: 0x9000, Len: 10, Type: isa.BranchCond, Next: 0x1000}
	a2 := Stream{Start: 0x9000, Len: 4, Type: isa.BranchCond, Next: 0x2000}
	x := Stream{Start: 0x1000, Len: 6, Type: isa.BranchUncond, Next: 0x9000}
	y := Stream{Start: 0x2000, Len: 6, Type: isa.BranchUncond, Next: 0x9000}
	seq := []Stream{a1, x, a2, y} // alternating contexts
	correct, total := 0, 0
	for round := 0; round < 200; round++ {
		for _, s := range seq {
			got, hit := p.Predict(s.Start)
			mis := !hit || got != s
			if round > 100 && s.Start == 0x9000 {
				total++
				if !mis {
					correct++
				}
			}
			p.OnPredict(s.Start)
			p.Update(s, mis)
		}
	}
	if correct*100 < total*90 {
		t.Fatalf("path correlation resolved only %d/%d alternating streams", correct, total)
	}
}

func TestPredictorRecover(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	p.RetPath.Push(0x1)
	p.RetPath.Push(0x2)
	p.SpecPath.Push(0x999) // wrong-path pollution
	p.Recover()
	for i := 0; i < p.SpecPath.Len(); i++ {
		if p.SpecPath.At(i) != p.RetPath.At(i) {
			t.Fatal("Recover did not copy the retirement path")
		}
	}
}

func TestPredictorLengthCap(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	s := Stream{Start: 0x100, Len: 500, Type: isa.BranchCond, Next: 0x900}
	p.Update(s, false)
	got, hit := p.Predict(0x100)
	if !hit {
		t.Fatal("miss after update")
	}
	if got.Len > MaxStreamLen {
		t.Fatalf("stored length %d exceeds cap %d", got.Len, MaxStreamLen)
	}
}

func TestBuilderClosesAtTakenBranches(t *testing.T) {
	b := NewBuilder(0x1000)
	// 3 plain instructions then a taken conditional.
	for i := 0; i < 3; i++ {
		if cl := b.Commit(isa.Addr(0x1000+4*i), isa.BranchNone, false, 0, false); cl != nil {
			t.Fatal("stream closed early")
		}
	}
	cl := b.Commit(0x100c, isa.BranchCond, true, 0x2000, false)
	if cl == nil {
		t.Fatal("taken branch did not close the stream")
	}
	if cl.Mispredicted {
		t.Fatal("clean stream flagged mispredicted")
	}
	s := cl.Stream
	if s.Start != 0x1000 || s.Len != 4 || s.Type != isa.BranchCond || s.Next != 0x2000 {
		t.Fatalf("stream = %+v", s)
	}
	if cl.HasPartial {
		t.Fatal("clean stream has a partial tail")
	}
}

func TestBuilderIgnoresNotTakenBranches(t *testing.T) {
	b := NewBuilder(0x1000)
	if cl := b.Commit(0x1000, isa.BranchCond, false, 0, false); cl != nil {
		t.Fatal("not-taken branch closed a stream")
	}
	cl := b.Commit(0x1004, isa.BranchUncond, true, 0x3000, false)
	if cl == nil || cl.Stream.Len != 2 {
		t.Fatalf("closed = %+v, want a stream of len 2", cl)
	}
}

func TestBuilderPartialStreamAfterNTMispredict(t *testing.T) {
	b := NewBuilder(0x1000)
	// Predicted taken, actually fell through: the canonical stream keeps
	// accumulating, and a partial stream opens at the fall-through.
	if cl := b.Commit(0x1000, isa.BranchCond, false, 0, true); cl != nil {
		t.Fatal("mispredicted NT branch closed a stream")
	}
	cl := b.Commit(0x1004, isa.BranchUncond, true, 0x4000, false)
	if cl == nil {
		t.Fatal("stream did not close at the taken terminator")
	}
	if !cl.Mispredicted {
		t.Fatal("stream lost its mispredict flag")
	}
	// The canonical stream spans both instructions: the predictor learns
	// the truth despite the misprediction.
	if cl.Stream.Start != 0x1000 || cl.Stream.Len != 2 {
		t.Fatalf("canonical stream = %+v, want start 0x1000 len 2", cl.Stream)
	}
	if !cl.HasPartial || cl.Partial.Start != 0x1004 || cl.Partial.Len != 1 {
		t.Fatalf("partial = %+v has=%v, want start 0x1004 len 1", cl.Partial, cl.HasPartial)
	}
	if cl.Partial.Next != 0x4000 {
		t.Fatalf("partial next = %v", cl.Partial.Next)
	}
	// The next close reuses the builder's Closed: no partial of the
	// previous stream may leak into it.
	cl = b.Commit(0x4000, isa.BranchUncond, true, 0x5000, false)
	if cl == nil || cl.Mispredicted || cl.HasPartial || cl.Partial != (Stream{}) {
		t.Fatalf("next close = %+v, want a clean stream with no partial", cl)
	}
}

func TestBuilderMispredictFlagPropagates(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Commit(0x1000, isa.BranchNone, false, 0, false)
	cl := b.Commit(0x1004, isa.BranchCond, true, 0x2000, true)
	if cl == nil || !cl.Mispredicted {
		t.Fatalf("mispredicted taken close: %+v", cl)
	}
	if cl.Stream.Next != 0x2000 {
		t.Fatalf("next = %v", cl.Stream.Next)
	}
}

func TestBuilderLengthCap(t *testing.T) {
	b := NewBuilder(0x1000)
	var s Stream
	for i := 0; ; i++ {
		if cl := b.Commit(isa.Addr(0x1000+4*i), isa.BranchNone, false, 0, false); cl != nil {
			s = cl.Stream
			break
		}
		if i > 2*MaxStreamLen {
			t.Fatal("length cap never triggered")
		}
	}
	if s.Len != MaxStreamLen || s.Type != isa.BranchNone {
		t.Fatalf("capped stream = %+v", s)
	}
	if s.Next != s.Start.Plus(MaxStreamLen) {
		t.Fatalf("capped stream next = %v, want sequential", s.Next)
	}
}

// TestBuilderPartitionProperty: feeding any synthetic committed sequence,
// the closed streams must partition the instructions between taken branches
// (stream lengths sum to the instruction count, minus discarded prefixes).
func TestBuilderPartitionProperty(t *testing.T) {
	rng := xrand.New(77)
	f := func(seedByte uint8) bool {
		b := NewBuilder(0x1000)
		addr := isa.Addr(0x1000)
		total, inStreams, discarded := 0, 0, 0
		open := 0
		for i := 0; i < 200; i++ {
			var bt isa.BranchType
			taken := false
			switch rng.Intn(5) {
			case 0:
				bt, taken = isa.BranchCond, rng.Bool(0.5)
			case 1:
				bt, taken = isa.BranchUncond, true
			}
			misp := bt == isa.BranchCond && !taken && rng.Bool(0.1)
			target := addr + 0x400
			cl := b.Commit(addr, bt, taken, target, misp)
			total++
			open++
			if cl != nil {
				inStreams += cl.Stream.Len
				if cl.Stream.Len != open {
					return false
				}
				open = 0
				addr = target
				continue
			}
			addr = addr.Next()
		}
		_ = discarded
		return inStreams+open == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamEnd(t *testing.T) {
	s := Stream{Start: 0x1000, Len: 5}
	if s.End() != 0x1014 {
		t.Fatalf("End = %v", s.End())
	}
}

func TestPredictorStorageBudget(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	bits := p.StorageBits()
	// Table 2's whole-predictor budget is about 45KB·8 bits; the stream
	// predictor holds 7K entries of ~8 bytes.
	if bits < 100_000 || bits > 1_000_000 {
		t.Fatalf("implausible storage estimate %d bits", bits)
	}
}
