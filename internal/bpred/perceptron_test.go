package bpred

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streamfetch/internal/ckpt/wire"
)

// refOutput is the perceptron output by the textbook formula: add each
// weight whose history bit is set, subtract it otherwise.
func refOutput(w []int16, gbits uint, ghist uint64, lhist uint32) int32 {
	y := int32(w[0])
	k := 1
	for i := uint(0); i < gbits; i, k = i+1, k+1 {
		if ghist>>i&1 == 1 {
			y += int32(w[k])
		} else {
			y -= int32(w[k])
		}
	}
	for i := 0; k < len(w); i, k = i+1, k+1 {
		if lhist>>i&1 == 1 {
			y += int32(w[k])
		} else {
			y -= int32(w[k])
		}
	}
	return y
}

// refTrain applies one training step by the textbook formula, clamping
// each weight to ±127.
func refTrain(w []int16, gbits uint, ghist uint64, lhist uint32, taken bool) {
	clamp := func(v int16) int16 {
		if v > 127 {
			return 127
		}
		if v < -127 {
			return -127
		}
		return v
	}
	t := int16(-1)
	if taken {
		t = 1
	}
	w[0] = clamp(w[0] + t)
	k := 1
	for i := uint(0); i < gbits; i, k = i+1, k+1 {
		x := int16(-1)
		if ghist>>i&1 == 1 {
			x = 1
		}
		w[k] = clamp(w[k] + x*t)
	}
	for i := 0; k < len(w); i, k = i+1, k+1 {
		x := int16(-1)
		if lhist>>i&1 == 1 {
			x = 1
		}
		w[k] = clamp(w[k] + x*t)
	}
}

// TestPerceptronMatchesReference differentially checks the packed
// predict and train kernels against the textbook formula over several
// geometries (global histories of 1 to 64 bits, so rows that end mid-word
// and on a word edge, and local histories of 4 and 14 bits): random
// weights (a quarter of them saturated), random global and local
// histories, random outcomes, and then a checkpoint round trip that must
// continue identically. The test reads and writes a packed row only
// through weights and setWeights.
func TestPerceptronMatchesReference(t *testing.T) {
	for _, gbits := range []uint{1, 8, 13, 40, 64} {
		for _, lbits := range []uint{4, 14} {
			cfg := PerceptronConfig{Perceptrons: 64, GlobalBits: gbits, LocalEntries: 256, LocalBits: lbits}
			if gbits == 40 && lbits == 14 {
				cfg = DefaultPerceptronConfig()
			}
			t.Run(fmt.Sprintf("g%d-l%d", gbits, lbits), func(t *testing.T) { perceptronMatchesReference(t, cfg) })
		}
	}
}

func perceptronMatchesReference(t *testing.T, cfg PerceptronConfig) {
	rng := rand.New(rand.NewSource(1))
	p := NewPerceptron(cfg)
	row := make([]int16, 1+cfg.GlobalBits+cfg.LocalBits)
	for r := range cfg.Perceptrons {
		for i := range row {
			switch rng.Intn(8) {
			case 0:
				row[i] = maxWeight
			case 1:
				row[i] = -maxWeight
			default:
				row[i] = int16(rng.Intn(255) - 127)
			}
		}
		p.setWeights(r, row)
	}
	for i := range p.local.table {
		p.local.table[i] = rng.Uint32()
	}
	trained := 0
	step := func(p *Perceptron, pc uint64, taken bool) PerceptronPred {
		want := p.weights(nil, int(p.index(pc)))
		pr := p.predictWith(pc, p.Hist.Ret)
		if y := refOutput(want, cfg.GlobalBits, pr.ghist, pr.lhist); pr.output != y {
			t.Fatalf("pc %#x: output %d, reference %d", pc, pr.output, y)
		}
		mag := pr.output
		if mag < 0 {
			mag = -mag
		}
		if pr.Taken != taken || mag <= p.theta {
			refTrain(want, cfg.GlobalBits, pr.ghist, pr.lhist, taken)
			trained++
		}
		p.UpdateAtCommit(pc, taken)
		if got := p.weights(nil, int(pr.index)); !slices.Equal(got, want) {
			t.Fatalf("pc %#x: trained weights %v, reference %v", pc, got, want)
		}
		return pr
	}
	for i := 0; i < 20000; i++ {
		p.Hist.Ret = rng.Uint64()
		step(p, rng.Uint64()&^3, rng.Intn(2) == 0)
	}
	if trained < 1000 {
		t.Fatalf("only %d of 20000 steps trained", trained)
	}

	q := NewPerceptron(cfg)
	if err := q.LoadState(wire.NewReader(p.AppendState(nil))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		pc, taken := rng.Uint64()&^3, rng.Intn(2) == 0
		a, b := step(p, pc, taken), step(q, pc, taken)
		if a != b {
			t.Fatalf("step %d after restore: %+v, original %+v", i, b, a)
		}
	}
}

// BenchmarkPerceptron times one Predict plus UpdateAtCommit at the
// Table-2 geometry over random branch addresses and outcomes.
func BenchmarkPerceptron(b *testing.B) {
	p := NewPerceptron(DefaultPerceptronConfig())
	rng := rand.New(rand.NewSource(1))
	pcs := make([]uint64, 4096)
	for i := range pcs {
		pcs[i] = rng.Uint64() &^ 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := pcs[i%len(pcs)]
		taken := pc>>7&1 == 1
		pr := p.Predict(pc)
		p.OnPredict(pr.Taken)
		p.UpdateAtCommit(pc, taken)
		if pr.Taken != taken {
			p.Recover()
		}
	}
}

// perceptronStatePin is the sha256 of TestPerceptronStatePinned's
// encoded states. A snapshot carries these bytes, so they may not move
// under an unchanged ckpt.Version.
const perceptronStatePin = "778bf1cda7322792a9d345661c963e7900b45f85e1804e14d30c5a70e5db8e68"

// TestPerceptronStatePinned trains perceptrons of three geometries on a
// fixed seeded branch sequence through the public predict, speculate,
// recover and commit calls, saturating some weights, and pins their
// AppendState bytes: the
// snapshot format (row and column counts, then every weight as a varint
// of its 16-bit two's complement, then the local and global histories)
// and the weights training leaves.
func TestPerceptronStatePinned(t *testing.T) {
	h := sha256.New()
	for _, cfg := range []PerceptronConfig{
		DefaultPerceptronConfig(),
		{Perceptrons: 16, GlobalBits: 13, LocalEntries: 32, LocalBits: 4},
		// theta (199) above the weight bound, so a weight that predicts
		// well keeps training into saturation.
		{Perceptrons: 8, GlobalBits: 64, LocalEntries: 16, LocalBits: 32},
	} {
		p := NewPerceptron(cfg)
		rng := rand.New(rand.NewSource(7))
		pcs := make([]uint64, 300)
		for i := range pcs {
			pcs[i] = rng.Uint64() &^ 3
		}
		for i := 0; i < 50_000; i++ {
			pc := pcs[rng.Intn(len(pcs))]
			// Mostly biased branches, some correlated with recent history.
			taken := pc>>5&1 == 1
			if pc>>6&3 == 0 {
				taken = p.Hist.Ret&1 != 0
			} else if rng.Intn(10) == 0 {
				taken = !taken
			}
			pr := p.Predict(pc)
			p.OnPredict(pr.Taken)
			p.UpdateAtCommit(pc, taken)
			if pr.Taken != taken {
				p.Recover()
			}
		}
		state := p.AppendState(nil)
		fmt.Fprintf(h, "%+v %d\n", cfg, len(state))
		h.Write(state)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != perceptronStatePin {
		t.Fatalf("perceptron states hash to %s, pinned %s: training or the snapshot encoding moved", got, perceptronStatePin)
	}
}

// TestPerceptronFootprint bounds the Table-2 predictor's weight storage:
// 512 rows of 55 weights pack into 7 words of lanes, a bias byte and a
// 16-bit sum each, about 30 KB (its 16-bit rows took 56 KB).
func TestPerceptronFootprint(t *testing.T) {
	p := NewPerceptron(DefaultPerceptronConfig())
	size := 8*cap(p.lanes) + cap(p.bias) + 2*cap(p.sum) + 8*cap(p.valid)
	t.Logf("perceptron weights: %d bytes", size)
	if size > 32<<10 {
		t.Fatalf("perceptron weights take %d bytes, want at most %d", size, 32<<10)
	}
}
