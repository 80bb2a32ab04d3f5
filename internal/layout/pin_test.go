package layout

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"streamfetch/internal/cfg"
	"streamfetch/internal/trace"
	"streamfetch/internal/workload"
)

// layoutHashes pins, for every benchmark, its baseline layout and its
// optimized layout trained on profile seed 7 for 200,000 instructions (the
// pair suiteImages builds). A change to how blocks are ordered, arranged
// or addressed, or to what any code slot decodes to, shows up here for all
// 11 benchmarks rather than the few the report goldens run.
var layoutHashes = map[string]string{
	"164.gzip":    "8487c8ff1ae4432acbc7de91cd96e412cd283941229d47a9ec582dcb028825de",
	"175.vpr":     "324d088323b2c66249c443d6a6629f55bb62cb2eaeeb43b99ac1a00262609c48",
	"176.gcc":     "7adfd193085187f9acafbd49e863556817622623c6ab5a957e5d5e953eebeb65",
	"186.crafty":  "a3910db5746704b33767f1ef8a530143dfe1c7512ea77b149d4f498db494abe3",
	"197.parser":  "dd71951ea4cda945e61c495135de5373077677a6b59b48513b7ec49dc9776110",
	"252.eon":     "1b2dc8898e9e80bf43ad077fb6dfba888ea6f79797a85c901562ab90a00bf8e1",
	"253.perlbmk": "4be399ea6844fe5654dc7ce7f8ae0fb43b097ff17523f49554fdd3c5ebf2c9b5",
	"254.gap":     "cb597e98b360a1a5fcb2c28604cb243be8803ca6308ff8fc737517136b42dc60",
	"255.vortex":  "49accf14fab5fe221f7d6beb4f7efaf34e6c3f29c09767a50fd141c55538d010",
	"256.bzip2":   "09a2d1b4c8000ff4dbb2cbb133a69aec9987457e17503cee4bb216c722925b0e",
	"300.twolf":   "96d3a146435e38c586deb3528a610960179e0a1010808feae08a1fed38dcffdd",
}

// layoutHash folds one layout into h: its order (the blocks in address
// order, derived from their starts), then per block in ID order its start,
// slot count, arrangement and conditional target side, then every code
// slot's instruction and static target.
func layoutHash(h hash.Hash, l *Layout) {
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(l.Name))
	order := l.addressOrder()
	u64(uint64(len(order)))
	for _, id := range order {
		u64(uint64(id))
	}
	for i := range l.Prog.Blocks {
		id := cfg.BlockID(i)
		u64(uint64(l.Start(id)))
		u64(uint64(l.Slots(id)))
		u64(uint64(l.Arrange(id)))
		u64(uint64(l.CondTargetSide(id)))
	}
	u64(uint64(l.TotalSlots()))
	for a := CodeBase; a < l.CodeLimit(); a = a.Next() {
		inst, ok := l.InstAt(a)
		if !ok {
			u64(^uint64(0))
			continue
		}
		u64(uint64(inst.Addr))
		u64(uint64(inst.Class))
		u64(uint64(inst.Branch))
		tgt, ok := l.StaticTarget(a)
		if !ok {
			tgt = 0
		}
		u64(uint64(tgt))
	}
}

// TestLayoutPinned checks both layouts of every benchmark against their
// recorded hash.
func TestLayoutPinned(t *testing.T) {
	suite := workload.Suite()
	layouts := suiteImages(t)
	if len(layouts) != 2*len(suite) {
		t.Fatalf("%d layouts for %d benchmarks", len(layouts), len(suite))
	}
	if len(layoutHashes) != len(suite) {
		t.Fatalf("suite has %d benchmarks, %d pinned", len(suite), len(layoutHashes))
	}
	for i, params := range suite {
		h := sha256.New()
		layoutHash(h, layouts[2*i])
		layoutHash(h, layouts[2*i+1])
		if got, want := hex.EncodeToString(h.Sum(nil)), layoutHashes[params.Name]; got != want {
			t.Errorf("%s: layout hash %s, pinned %s", params.Name, got, want)
		}
	}
}

// dynHashes pins, for every benchmark, the dynamic expansion of a seeded
// 100,000-instruction trace (trace seed 99) under its baseline and its
// optimized layout (the pair suiteImages builds): every field of every
// DynInst, in order. Both AppendDyn block by block and AppendDynRun in
// 512-block runs must produce it.
var dynHashes = map[string]string{
	"164.gzip":    "1ea4141e376bf8e48dd3955c05a0759c7474ef10ab6afec0ea4603836d8bc6b9",
	"175.vpr":     "1647c537347fad8704a63555d8a7e1a95e0b11c732ba03579ab45cd7290ffcb5",
	"176.gcc":     "b53a60fee31f005a48b29bea4ff788685b9b74faad3d0f5ae9f5bd77ef93e6db",
	"186.crafty":  "2e4c397e3abab0fd1c8fcfabb7578d93ec5a71177ca6fb8a03470df9e856f67c",
	"197.parser":  "bce5b362569c887b6b287ea15d5ea4660d4143692065052f94b3422f21948b6e",
	"252.eon":     "a3b0ac59e2fb605d2b6070bb9cf5de6386b72e768aa3124bc82f45d77b1150f4",
	"253.perlbmk": "787528ecbc9a231b9cea1b246ee28159bf80a4594bfe53f2347404dcbb7e9765",
	"254.gap":     "79448f46dc9bad456b5622dbaf35d74552d2c4fa17d2aa606771f379a9ffe691",
	"255.vortex":  "a34992dfd58df0c79a5a9c3be79e2e8f8a460f33428004f83d68800dd59bb32d",
	"256.bzip2":   "301a22a6acbfd2c0b9691df6d40895352591d55df4499f8a71f4754aa580228b",
	"300.twolf":   "29eefc5461a16e2d347c1c14f5393f4821239cec47d914259f3926ec86e91b53",
}

// dynHash folds a dynamic instruction stream into h: its length, then
// every instruction's Addr, NextAddr, Class, Branch and Taken.
func dynHash(h hash.Hash, dyn []DynInst) {
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(len(dyn)))
	for _, d := range dyn {
		u64(uint64(d.Addr))
		u64(uint64(d.NextAddr))
		taken := uint64(0)
		if d.Taken {
			taken = 1
		}
		u64(uint64(d.Class) | uint64(d.Branch)<<8 | taken<<16)
	}
}

// TestDynExpansionPinned checks the correct-path expansion of both layouts
// of every benchmark against its recorded hash, per block through
// AppendDyn and in 512-block runs through AppendDynRun.
func TestDynExpansionPinned(t *testing.T) {
	suite := workload.Suite()
	layouts := suiteImages(t)
	if len(layouts) != 2*len(suite) {
		t.Fatalf("%d layouts for %d benchmarks", len(layouts), len(suite))
	}
	const run = 512
	for i, params := range suite {
		tr := trace.Generate(layouts[2*i].Prog, trace.GenConfig{Seed: 99, MaxInsts: 100_000})
		blocks := tr.Blocks
		perBlock, perRun := sha256.New(), sha256.New()
		var dyn []DynInst
		for _, l := range layouts[2*i : 2*i+2] {
			dyn = dyn[:0]
			for j, id := range blocks {
				next := cfg.NoBlock
				if j+1 < len(blocks) {
					next = blocks[j+1]
				}
				dyn = l.AppendDyn(dyn, id, next)
			}
			dynHash(perBlock, dyn)

			dyn = dyn[:0]
			for j := 0; j < len(blocks); j += run {
				end, next := j+run, cfg.NoBlock
				if end >= len(blocks) {
					end = len(blocks)
				} else {
					next = blocks[end]
				}
				dyn = l.AppendDynRun(dyn, blocks[j:end], next)
			}
			dynHash(perRun, dyn)
		}
		want := dynHashes[params.Name]
		for _, c := range []struct {
			how string
			h   hash.Hash
		}{{"AppendDyn", perBlock}, {"AppendDynRun", perRun}} {
			if got := hex.EncodeToString(c.h.Sum(nil)); got != want {
				t.Errorf("%s: %s expansion hash %s, pinned %s", params.Name, c.how, got, want)
			}
		}
	}
	if len(dynHashes) != len(suite) {
		t.Fatalf("suite has %d benchmarks, %d pinned", len(suite), len(dynHashes))
	}
}
