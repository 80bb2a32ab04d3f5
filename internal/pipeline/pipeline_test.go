package pipeline

import (
	"testing"

	"streamfetch/internal/cache"
	"streamfetch/internal/isa"
)

// The TestROB* tests pin the ROB part of the in-flight Window.

func TestROBOrderAndSquash(t *testing.T) {
	w := NewWindow(8, 8)
	for i := 1; i <= 5; i++ {
		w.Push(uint64(i))
	}
	for i := 0; i < 4; i++ {
		w.Issue()
	}
	if w.ROBLen() != 4 || w.FetchLen() != 1 {
		t.Fatalf("rob %d, fetch %d", w.ROBLen(), w.FetchLen())
	}
	// The squash point lies in the ROB part: the fetch buffer empties too.
	if n := w.SquashAfter(3); n != 2 {
		t.Fatalf("squashed %d, want 2", n)
	}
	if w.ROBLen() != 3 || w.FetchLen() != 0 {
		t.Fatalf("after squash: rob %d, fetch %d", w.ROBLen(), w.FetchLen())
	}
	if e := w.PopHead(); e.Seq != 1 {
		t.Fatalf("head seq = %d", e.Seq)
	}
}

func TestROBFind(t *testing.T) {
	w := NewWindow(4, 4)
	w.Push(10)
	w.Push(11)
	w.Issue()
	if e := w.Find(10); e == nil || e.Seq != 10 {
		t.Fatal("Find missed a ROB entry")
	}
	if e := w.Find(11); e == nil || e.Seq != 11 {
		t.Fatal("Find missed a fetch-buffer entry")
	}
	if w.Find(99) != nil || w.Find(9) != nil {
		t.Fatal("Find invented an entry")
	}
}

func TestROBFull(t *testing.T) {
	w := NewWindow(2, 4)
	for i := 1; i <= 3; i++ {
		w.Push(uint64(i))
	}
	w.Issue()
	if w.ROBFull() {
		t.Fatal("full too early")
	}
	w.Issue()
	if !w.ROBFull() || w.FetchLen() != 1 {
		t.Fatalf("not full at capacity: rob %d, fetch %d", w.ROBLen(), w.FetchLen())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Width: 8}.WithDefaults()
	if c.ROBSize != 128 || c.DecodePenalty == 0 || c.MulLatency == 0 || c.DataWorkingSet == 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
}

func TestLoadAddrGenDeterministic(t *testing.T) {
	a := NewLoadAddrGen(1<<20, 0x1000, 1<<12)
	b := NewLoadAddrGen(1<<20, 0x1000, 1<<12)
	for i := 0; i < 100; i++ {
		if a.Next(0x1234) != b.Next(0x1234) {
			t.Fatal("generators diverged")
		}
	}
}

func TestLoadAddrGenWithinSegment(t *testing.T) {
	g := NewLoadAddrGen(1<<18, 0x4000, 8)
	for i := 0; i < 10000; i++ {
		a := g.Next(isa.Addr(0x4000 + 4*(i%7)))
		if a < DataBase || a >= DataBase+(1<<18) {
			t.Fatalf("address %x outside the working set", a)
		}
	}
}

func TestLoadAddrGenLocality(t *testing.T) {
	// The streaming pattern must produce a high D-cache hit rate.
	h := cache.NewHierarchy(cache.DefaultHierarchy(8))
	g := NewLoadAddrGen(1<<20, 0x1000, 32)
	lat := Latency{Hier: h, Gen: g, Mul: 3}
	for i := 0; i < 50000; i++ {
		e := Entry{Addr: isa.Addr(0x1000 + 4*(i%17)), Class: isa.ClassLoad}
		lat.For(&e)
	}
	if mr := h.DCache.Stats().MissRate(); mr > 0.25 {
		t.Fatalf("D-cache miss rate %.2f too high for a streaming workload", mr)
	}
}

func TestLatencyClasses(t *testing.T) {
	h := cache.NewHierarchy(cache.DefaultHierarchy(8))
	lat := Latency{Hier: h, Gen: NewLoadAddrGen(1<<16, 0, 0), Mul: 3}
	if got := lat.For(&Entry{Class: isa.ClassALU}); got != 1 {
		t.Fatalf("ALU latency %d", got)
	}
	if got := lat.For(&Entry{Class: isa.ClassMul}); got != 3 {
		t.Fatalf("Mul latency %d", got)
	}
	if got := lat.For(&Entry{Class: isa.ClassLoad, Addr: 0x100}); got <= 1 {
		t.Fatalf("cold load latency %d, want a miss", got)
	}
}
