package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"streamfetch/internal/isa"
)

// TestWaySize guards a cache way's footprint: a tag and an LRU stamp, with
// validity encoded as a nonzero stamp, so a set scan touches 16 bytes per
// way.
func TestWaySize(t *testing.T) {
	if got := unsafe.Sizeof(way{}); got != 16 {
		t.Fatalf("cache way is %d bytes, want 16", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{SizeBytes: 1024, LineBytes: 64, Ways: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, bad := range []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 2},
		{SizeBytes: 1024, LineBytes: 60, Ways: 2},       // non-power-of-two line
		{SizeBytes: 1000, LineBytes: 64, Ways: 2},       // size not divisible
		{SizeBytes: 64 * 2 * 3, LineBytes: 64, Ways: 2}, // 3 sets
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid config %+v accepted", bad)
		}
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	a := isa.Addr(0x1000)
	if c.Access(a) {
		t.Fatal("cold access hit")
	}
	if !c.Access(a) {
		t.Fatal("second access missed")
	}
	if !c.Access(a + 60) {
		t.Fatal("same-line access missed")
	}
	if c.Access(a + 64) {
		t.Fatal("next-line access hit")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Misses != 2 {
		t.Fatalf("stats = %+v, want 4 accesses 2 misses", s)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	// Direct test with 2 ways and 1 set: size = line*ways.
	c := New(Config{SizeBytes: 128, LineBytes: 64, Ways: 2})
	c.Access(0x0000)
	c.Access(0x1000)
	c.Access(0x0000) // refresh line 0
	c.Access(0x2000) // evicts 0x1000 (LRU)
	if !c.Probe(0x0000) {
		t.Fatal("recently used line evicted")
	}
	if c.Probe(0x1000) {
		t.Fatal("LRU line survived")
	}
	if !c.Probe(0x2000) {
		t.Fatal("new line absent")
	}
}

func TestCacheReset(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	c.Access(0x40)
	c.Reset()
	if c.Probe(0x40) {
		t.Fatal("line survived reset")
	}
	if c.Stats() != (Stats{}) {
		t.Fatal("stats survived reset")
	}
}

// TestCacheCapacityProperty: any working set that fits entirely must stop
// missing after the first pass.
func TestCacheCapacityProperty(t *testing.T) {
	c := New(Config{SizeBytes: 4096, LineBytes: 64, Ways: 4})
	lines := 4096 / 64
	for pass := 0; pass < 3; pass++ {
		missesBefore := c.Stats().Misses
		for i := 0; i < lines; i++ {
			c.Access(isa.Addr(i * 64))
		}
		if pass > 0 && c.Stats().Misses != missesBefore {
			t.Fatalf("pass %d missed on a resident working set", pass)
		}
	}
}

func TestLineAddr(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	f := func(a uint32) bool {
		la := c.LineAddr(isa.Addr(a))
		return uint64(la)%64 == 0 && la <= isa.Addr(a) && isa.Addr(a)-la < 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy(8))
	a := isa.Addr(0x5000)
	if lat := h.FetchLatency(a); lat != 100 {
		t.Fatalf("cold fetch latency %d, want 100 (memory)", lat)
	}
	if lat := h.FetchLatency(a); lat != 1 {
		t.Fatalf("warm fetch latency %d, want 1", lat)
	}
	// Evict from L1 but not L2: access many conflicting lines.
	line := isa.Addr(h.ICache.LineBytes())
	sets := isa.Addr(64 << 10 / (int(line) * 2))
	for i := isa.Addr(1); i <= 4; i++ {
		h.ICache.Access(a + i*sets*line)
	}
	if lat := h.FetchLatency(a); lat != 15 {
		t.Fatalf("L2-resident fetch latency %d, want 15", lat)
	}
}

func TestDefaultHierarchyLineScalesWithWidth(t *testing.T) {
	for _, w := range []int{2, 4, 8} {
		cfg := DefaultHierarchy(w)
		if cfg.ICache.LineBytes != 4*w*isa.InstBytes {
			t.Errorf("width %d: line %dB, want %d", w, cfg.ICache.LineBytes, 4*w*isa.InstBytes)
		}
		if err := cfg.ICache.Validate(); err != nil {
			t.Errorf("width %d: invalid icache: %v", w, err)
		}
	}
}

func TestStoreAllocates(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy(4))
	h.Store(0x9000)
	if lat := h.LoadLatency(0x9000); lat != 1 {
		t.Fatalf("load after store latency %d, want 1 (write-allocate)", lat)
	}
}
