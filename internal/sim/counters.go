// Mergeable simulation counters. Every event counter a run accumulates —
// driver-side retirement and branch counts, the engine's fetch statistics,
// the cache hierarchy's access counts — lives in one Counters block, so a
// run splits into warmup and measure phases by snapshot (Delta) and
// independently simulated trace intervals combine into one logical run
// (Merge).
package sim

import (
	"reflect"

	"streamfetch/internal/cache"
	"streamfetch/internal/frontend"
)

// Counters is the counter block of one simulation phase: everything in a
// Result that accumulates per event, none of the identity fields. It is
// the one list of model counters: Merge and Delta walk its uint64 leaves
// (nested FetchStats and cache.Stats included), and rates are methods
// derived from it. The zero value is an empty block.
type Counters struct {
	Cycles  uint64
	Retired uint64

	Branches     uint64
	Mispredicted uint64
	// MispredByType breaks mispredictions down by branch type (indexed
	// by isa.BranchType).
	MispredByType [8]uint64
	// Misfetches counts decode-stage redirects (wrong or missing targets
	// caught before execute).
	Misfetches uint64

	Fetch frontend.FetchStats

	ICache cache.Stats
	DCache cache.Stats
	L2     cache.Stats
}

// Merge accumulates another counter block into c. Merging the per-interval
// blocks of a sharded run yields the logical run's totals; note that
// summed Cycles from intervals simulated in parallel measure simulated
// work, not wall-clock.
func (c *Counters) Merge(o Counters) {
	combine(reflect.ValueOf(c).Elem(), reflect.ValueOf(o), func(a, b uint64) uint64 { return a + b })
}

// Delta returns the events counted since the earlier snapshot — how a
// warmup prefix is excluded from a run's measured counters.
func (c Counters) Delta(since Counters) Counters {
	combine(reflect.ValueOf(&c).Elem(), reflect.ValueOf(since), func(a, b uint64) uint64 { return a - b })
	return c
}

// combine sets every leaf of dst to op(leaf, the same leaf of src),
// walking nested structs and arrays, so Merge and Delta cover whatever
// counters the block declares. A leaf that is not a uint64 is a
// programming error and panics. It runs once per interval, not per cycle.
func combine(dst, src reflect.Value, op func(a, b uint64) uint64) {
	switch dst.Kind() {
	case reflect.Uint64:
		dst.SetUint(op(dst.Uint(), src.Uint()))
	case reflect.Struct:
		for i := range dst.NumField() {
			combine(dst.Field(i), src.Field(i), op)
		}
	case reflect.Array:
		for i := range dst.Len() {
			combine(dst.Index(i), src.Index(i), op)
		}
	default:
		panic("sim: counter leaf of type " + dst.Type().String() + " is not a uint64")
	}
}

// IPC returns retired correct-path instructions per cycle (0 when idle).
func (c Counters) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Retired) / float64(c.Cycles)
}

// MispredRate returns mispredicted branches per committed branch.
func (c Counters) MispredRate() float64 {
	if c.Branches == 0 {
		return 0
	}
	return float64(c.Mispredicted) / float64(c.Branches)
}
