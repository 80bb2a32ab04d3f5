package ckpt_test

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"streamfetch/internal/bpred"
	"streamfetch/internal/cache"
	"streamfetch/internal/ckpt"
	"streamfetch/internal/core"
	"streamfetch/internal/frontend"
	"streamfetch/internal/layout"
	"streamfetch/internal/sim"
	"streamfetch/internal/tcache"
	"streamfetch/internal/trace"
	"streamfetch/internal/workload"
)

// snapshotMagic and the 8-byte checksum that follows it frame every
// snapshot; the fuzzed payload is everything after them.
const snapshotMagic = "SFCK"

// frame seals payload into a snapshot with a valid checksum, so that a
// mutation reaches the section decoders instead of stopping at the
// integrity check.
func frame(payload []byte) []byte {
	blob := make([]byte, len(snapshotMagic)+8, len(snapshotMagic)+8+len(payload))
	copy(blob, snapshotMagic)
	blob = append(blob, payload...)
	sum := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint64(blob[len(snapshotMagic):], uint64(sum))
	return blob
}

// fuzzHier and fuzzEngines are small geometries, so that the seed
// snapshots, and each mutation's decode, stay a few kilobytes.
func fuzzHier() cache.HierarchyConfig {
	h := cache.DefaultHierarchy(4)
	h.ICache.SizeBytes = 1 << 10
	h.DCache.SizeBytes = 1 << 10
	h.L2.SizeBytes = 4 << 10
	return h
}

var fuzzEngines = map[string]any{
	"ev8": frontend.EV8Config{
		Gskew:      bpred.GskewConfig{EntriesPerBank: 64, HistoryBits: 6},
		BTBEntries: 32, BTBWays: 4, RASDepth: 8,
	},
	"ftb": frontend.FTBConfig{
		FTBEntries: 32, FTBWays: 4, MaxBlockLen: 32,
		Perceptron: bpred.PerceptronConfig{Perceptrons: 8, GlobalBits: 8, LocalEntries: 16, LocalBits: 4},
		FTQDepth:   4, RASDepth: 8,
	},
	"streams": frontend.StreamConfig{
		Predictor: core.PredictorConfig{
			FirstEntries: 32, FirstWays: 4, SecondEntries: 48, SecondWays: 3,
			DOLC: core.DefaultPredictorConfig().DOLC,
		},
		FTQDepth: 4, RASDepth: 8,
	},
	"tcache": frontend.TCConfig{
		TCache: tcache.Config{
			MaxLen: 16, MaxCond: 3, SizeBytes: 1 << 10, Ways: 2,
			FirstEntries: 32, FirstWays: 4, SecondEntries: 32, SecondWays: 4,
			DOLC: tcache.DefaultConfig().DOLC,
		},
		BTBEntries: 32, BTBWays: 4, RASDepth: 8,
	},
}

// FuzzSnapshot feeds mutated snapshot payloads, re-framed with a valid
// checksum, to Decode, Snapshot.Apply and every engine's LoadWarmState.
// A malformed snapshot must come back as an error: no input may panic or
// hang any of them. A snapshot an engine accepts must be one it can run
// from: a fresh processor restored from it simulates a few hundred
// instructions, so accepted but inconsistent state (a predicted block of
// no instructions, a target between instructions) panics or stalls here
// instead of in a shard. The
// seeds are real snapshots, one per engine, taken by the
// functional-warming walk partway into a small benchmark.
func FuzzSnapshot(f *testing.F) {
	params, err := workload.ByName("197.parser")
	if err != nil {
		f.Fatal(err)
	}
	// The load address generator's section holds a pair per executed
	// memory instruction, so the program is cut down to a few procedures
	// too.
	params.NumProcs = 6
	params.RegionsPerProc = [2]int{2, 4}
	prog := workload.Generate(params)
	lay := layout.Baseline(prog)
	gc := trace.GenConfig{Seed: 1, MaxInsts: 50_000}
	engines := []string{"ev8", "ftb", "streams", "tcache"}
	const boundary = 20_000
	config := func(name string) sim.Config {
		return sim.Config{Width: 4, Engine: name, EngineOptions: fuzzEngines[name], Hier: fuzzHier()}
	}

	var procs []*sim.Processor
	for _, name := range engines {
		p, err := sim.New(lay, trace.NewGenSource(prog, gc), config(name))
		if err != nil {
			f.Fatal(err)
		}
		err = p.WarmPrefix(context.Background(), []uint64{boundary}, func(int, uint64) error {
			eng := p.Engine()
			blob := ckpt.Encode(nil, boundary, p.Hier(), p.Gen(), eng.Name(), eng.AppendWarmState(nil))
			// A seed must restore cleanly, or mutations of it would
			// never get past the first section.
			snap, err := ckpt.Decode(frame(blob[len(snapshotMagic)+8:]))
			if err == nil {
				err = snap.Apply(p.Hier(), p.Gen())
			}
			if err == nil {
				err = eng.LoadWarmState(snap.Engine)
			}
			if err != nil {
				return err
			}
			f.Add(blob[len(snapshotMagic)+8:])
			return nil
		})
		if err != nil {
			f.Fatal(err)
		}
		procs = append(procs, p)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		snap, err := ckpt.Decode(frame(payload))
		if err != nil {
			return
		}
		// Each processor's components have the seeds' geometry; a
		// failed restore leaves them partially written, which the next
		// input may meet, as a caller discarding them would not.
		// Both restores run on every input, so a rejected hierarchy
		// section does not keep the engine section from its decoder.
		for i, p := range procs {
			aerr := snap.Apply(p.Hier(), p.Gen())
			eerr := p.Engine().LoadWarmState(snap.Engine)
			if aerr != nil || eerr != nil || snap.EngineName != engines[i] {
				continue
			}
			// Accepted, as a shard would accept it: simulate from the
			// boundary on a fresh processor (the walked one's source is
			// spent).
			src, err := trace.NewInterval(trace.NewGenSource(prog, gc), 0, prog, trace.IntervalConfig{
				Start: boundary, End: boundary + 300,
			})
			if err != nil {
				t.Fatal(err)
			}
			// A few hundred instructions take a few thousand cycles; a
			// run that has retired so few by cycle 2^17 is stalled for
			// good.
			c := config(engines[i])
			c.OnProgress = func(_, cycles uint64) bool { return cycles < 1<<17 }
			q, err := sim.New(lay, src, c)
			if err != nil {
				t.Fatal(err)
			}
			if err := snap.Apply(q.Hier(), q.Gen()); err != nil {
				t.Fatalf("%s: snapshot applied once, then failed: %v", engines[i], err)
			}
			if err := q.Engine().LoadWarmState(snap.Engine); err != nil {
				t.Fatalf("%s: warm state loaded once, then failed: %v", engines[i], err)
			}
			if res := q.Run(); res.Aborted {
				t.Fatalf("%s: restored state stalls fetch: %d instructions retired in %d cycles", engines[i], res.Retired, res.Cycles)
			}
		}
	})
}
