package bpred

import (
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

// TestPerceptronMatchesReference differentially checks the branchless
// predict and train loops against the textbook formula: random weights
// (saturated ones included), random global and local histories, random
// outcomes, and then a checkpoint round trip that must continue
// identically.
func TestPerceptronMatchesReference(t *testing.T) {
	cfg := DefaultPerceptronConfig()
	rng := rand.New(rand.NewSource(1))
	p := NewPerceptron(cfg)
	for _, row := range p.weights {
		for i := range row {
			row[i] = int16(rng.Intn(255) - 127)
		}
	}
	for i := range p.local.table {
		p.local.table[i] = rng.Uint32()
	}
	trained := 0
	step := func(p *Perceptron, pc uint64, taken bool) PerceptronPred {
		want := slices.Clone(p.weights[p.index(pc)])
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
		if got := p.weights[pr.index]; !slices.Equal(got, want) {
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
