package layout

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"streamfetch/internal/cfg"
	"streamfetch/internal/workload"
)

// layoutHashes pins, for every benchmark, its baseline layout and its
// optimized layout trained on profile seed 7 for 200,000 instructions (the
// pair decodeLayouts builds). A change to how blocks are ordered, arranged
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
	layouts := decodeLayouts(t)
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
