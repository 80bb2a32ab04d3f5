// Package cache implements the memory hierarchy models of the simulated
// processor: generic set-associative LRU caches used as the (wide-line)
// instruction cache, the data cache, and the unified L2, plus a Hierarchy
// helper that charges the Table-2 latencies (L1 1 cycle, L2 15 cycles,
// memory 100 cycles).
package cache

import (
	"fmt"

	"streamfetch/internal/isa"
)

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the line size.
	LineBytes int
	// Ways is the associativity.
	Ways int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0:
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible by line*ways %d",
			c.SizeBytes, c.LineBytes*c.Ways)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Stats counts cache events. The hierarchy's three blocks are part of
// sim.Counters, which merges parallel trace intervals and excludes a
// warmup prefix by delta; the public cache report embeds Stats as-is
// (hence the JSON tags).
type Stats struct {
	Accesses uint64 `json:"accesses"`
	Misses   uint64 `json:"misses"`
}

// MissRate returns misses per access (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// way is one cache line's tag and LRU stamp. A zero stamp marks the way
// invalid: the clock advances before every access, so valid stamps are
// always positive.
type way struct {
	tag   uint64
	stamp uint64
}

// Cache is a set-associative cache with true-LRU replacement. Its sets
// are one flat array, set s holding ways[s*nways : (s+1)*nways].
type Cache struct {
	cfg       Config
	ways      []way
	nways     int
	setMask   uint64
	lineShift uint
	clock     uint64
	stats     Stats
}

// New builds a cache; it panics on invalid geometry (a construction-time
// programming error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	c := &Cache{
		cfg:     cfg,
		ways:    make([]way, nsets*cfg.Ways),
		nways:   cfg.Ways,
		setMask: uint64(nsets - 1),
	}
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		c.lineShift++
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// set returns the ways of the set a maps to, and a's tag.
func (c *Cache) set(a isa.Addr) (s []way, tag uint64) {
	line := uint64(a) >> c.lineShift
	base := int(line&c.setMask) * c.nways
	return c.ways[base : base+c.nways], line
}

// Access looks address a up, filling the line on a miss (LRU victim).
// It returns true on a hit. The hit lookup and the LRU victim scan share
// one pass over the set: the victim is the first way with the smallest
// stamp, which is the first invalid way when there is one (invalid stamps
// are zero, valid ones positive), else the least recently used.
func (c *Cache) Access(a isa.Addr) bool {
	c.clock++
	c.stats.Accesses++
	s, tag := c.set(a)
	v := 0
	for i := range s {
		if s[i].tag == tag && s[i].stamp != 0 {
			s[i].stamp = c.clock
			return true
		}
		if s[i].stamp < s[v].stamp {
			v = i
		}
	}
	c.stats.Misses++
	s[v] = way{tag: tag, stamp: c.clock}
	return false
}

// Probe reports whether a is resident without updating LRU state or stats.
func (c *Cache) Probe(a isa.Addr) bool {
	s, tag := c.set(a)
	for _, w := range s {
		if w.tag == tag && w.stamp != 0 {
			return true
		}
	}
	return false
}

// Stats returns the event counts so far.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.ways)
	c.clock = 0
	c.stats = Stats{}
}

// LineAddr returns the line-aligned address containing a.
func (c *Cache) LineAddr(a isa.Addr) isa.Addr {
	return isa.Addr(uint64(a) &^ uint64(c.cfg.LineBytes-1))
}

// HierarchyConfig describes the full memory system (Table 2 defaults via
// DefaultHierarchy).
type HierarchyConfig struct {
	ICache Config
	DCache Config
	L2     Config
	// L1Latency, L2Latency, MemLatency are access latencies in cycles.
	L1Latency, L2Latency, MemLatency int
}

// DefaultHierarchy returns the paper's Table-2 memory system for the given
// pipeline width: 64KB 2-way L1s (I-line = 4x width instructions), 1MB
// 4-way L2, 15-cycle L2, 100-cycle memory.
func DefaultHierarchy(width int) HierarchyConfig {
	return HierarchyConfig{
		ICache:     Config{SizeBytes: 64 << 10, LineBytes: 4 * width * isa.InstBytes, Ways: 2},
		DCache:     Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 2},
		L2:         Config{SizeBytes: 1 << 20, LineBytes: 64, Ways: 4},
		L1Latency:  1,
		L2Latency:  15,
		MemLatency: 100,
	}
}

// Hierarchy wires L1 instruction and data caches above a unified L2.
type Hierarchy struct {
	cfg    HierarchyConfig
	ICache *Cache
	DCache *Cache
	L2     *Cache
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		cfg:    cfg,
		ICache: New(cfg.ICache),
		DCache: New(cfg.DCache),
		L2:     New(cfg.L2),
	}
}

// FetchLatency charges an instruction fetch of the line containing a and
// returns its latency in cycles.
func (h *Hierarchy) FetchLatency(a isa.Addr) int {
	if h.ICache.Access(a) {
		return h.cfg.L1Latency
	}
	if h.L2.Access(a) {
		return h.cfg.L2Latency
	}
	return h.cfg.MemLatency
}

// LoadLatency charges a data load at address a and returns its latency.
func (h *Hierarchy) LoadLatency(a isa.Addr) int {
	if h.DCache.Access(a) {
		return h.cfg.L1Latency
	}
	if h.L2.Access(a) {
		return h.cfg.L2Latency
	}
	return h.cfg.MemLatency
}

// Store charges a data store (write-allocate, latency hidden by the store
// buffer in the back-end model).
func (h *Hierarchy) Store(a isa.Addr) {
	if !h.DCache.Access(a) {
		h.L2.Access(a)
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }
