// The perceptron branch predictor (Jiménez & Lin, HPCA 2001), with the
// combined global+local history variant the paper pairs with the FTB
// front-end (Table 2: 512 perceptrons, 40-bit global history, 4096 x 14-bit
// local histories).
package bpred

// PerceptronConfig sizes the perceptron predictor.
type PerceptronConfig struct {
	// Perceptrons is the number of weight vectors (power of two).
	Perceptrons int
	// GlobalBits is the global history length.
	GlobalBits uint
	// LocalEntries, LocalBits size the local history table.
	LocalEntries int
	LocalBits    uint
}

// DefaultPerceptronConfig returns the Table-2 configuration.
func DefaultPerceptronConfig() PerceptronConfig {
	return PerceptronConfig{
		Perceptrons:  512,
		GlobalBits:   40,
		LocalEntries: 4096,
		LocalBits:    14,
	}
}

// Perceptron is a global+local perceptron direction predictor.
type Perceptron struct {
	cfg     PerceptronConfig
	weights [][]int16 // [perceptron][1 + global + local]
	local   *LocalHistory
	theta   int32
	mask    uint64
	Hist    HistPair // global history (speculative + retirement)
}

// NewPerceptron builds the predictor.
func NewPerceptron(cfg PerceptronConfig) *Perceptron {
	if cfg.Perceptrons <= 0 || cfg.Perceptrons&(cfg.Perceptrons-1) != 0 {
		panic("bpred: perceptron count must be a positive power of two")
	}
	if cfg.GlobalBits == 0 || cfg.GlobalBits > 64 {
		panic("bpred: perceptron global bits must be in 1..64")
	}
	n := 1 + int(cfg.GlobalBits) + int(cfg.LocalBits)
	w := make([][]int16, cfg.Perceptrons)
	for i := range w {
		w[i] = make([]int16, n)
	}
	// Training threshold from Jiménez & Lin: theta = 1.93h + 14.
	h := int(cfg.GlobalBits + cfg.LocalBits)
	return &Perceptron{
		cfg:     cfg,
		weights: w,
		local:   NewLocalHistory(cfg.LocalEntries, cfg.LocalBits),
		theta:   int32(float64(h)*1.93 + 14),
		mask:    uint64(cfg.Perceptrons - 1),
	}
}

// PerceptronPred carries the state of one prediction for training.
type PerceptronPred struct {
	Taken  bool
	output int32
	ghist  uint64
	lhist  uint32
	index  uint64
}

func (p *Perceptron) index(pc uint64) uint64 {
	return ((pc >> 2) ^ (pc >> 11)) & p.mask
}

// Predict computes the perceptron output for branch pc using the current
// speculative global history and committed local history.
func (p *Perceptron) Predict(pc uint64) PerceptronPred {
	return p.predictWith(pc, p.Hist.Spec)
}

// predictWith computes the output without a data-dependent branch per
// history bit: with m = bit-1 (0 or -1), (w^m)-m is w for a set bit and -w
// for a clear one.
func (p *Perceptron) predictWith(pc, ghist uint64) PerceptronPred {
	idx := p.index(pc)
	w := p.weights[idx]
	lhist := p.local.Get(pc)
	y := int32(w[0]) // bias weight
	gw := w[1 : 1+p.cfg.GlobalBits]
	for i, wi := range gw {
		m := int32(ghist>>uint(i)&1) - 1
		y += (int32(wi) ^ m) - m
	}
	lw := w[1+p.cfg.GlobalBits:]
	for i, wi := range lw {
		m := int32(lhist>>uint(i)&1) - 1
		y += (int32(wi) ^ m) - m
	}
	return PerceptronPred{
		Taken:  y >= 0,
		output: y,
		ghist:  ghist,
		lhist:  lhist,
		index:  idx,
	}
}

// OnPredict shifts the predicted outcome into the speculative history.
func (p *Perceptron) OnPredict(taken bool) { p.Hist.ShiftSpec(taken) }

// Update trains the perceptron on the committed outcome and advances the
// retirement histories.
func (p *Perceptron) Update(pc uint64, pr PerceptronPred, taken bool) {
	mispredicted := pr.Taken != taken
	mag := pr.output
	if mag < 0 {
		mag = -mag
	}
	if mispredicted || mag <= p.theta {
		w := p.weights[pr.index]
		t := int16(-1)
		if taken {
			t = 1
		}
		w[0] = clampWeight(w[0] + t)
		// Each input is x = 2*bit-1 (+1 for a set bit, -1 for a clear
		// one).
		gw := w[1 : 1+p.cfg.GlobalBits]
		for i := range gw {
			x := int16(pr.ghist>>uint(i)&1)*2 - 1
			gw[i] = clampWeight(gw[i] + x*t)
		}
		lw := w[1+p.cfg.GlobalBits:]
		for i := range lw {
			x := int16(pr.lhist>>uint(i)&1)*2 - 1
			lw[i] = clampWeight(lw[i] + x*t)
		}
	}
	p.Hist.ShiftRet(taken)
	p.local.Update(pc, taken)
}

// UpdateAtCommit trains the perceptron at retirement using the retirement
// history register (commit-time update discipline).
func (p *Perceptron) UpdateAtCommit(pc uint64, taken bool) {
	pr := p.predictWith(pc, p.Hist.Ret)
	p.Update(pc, pr, taken)
}

// Recover restores the speculative global history after a misprediction.
func (p *Perceptron) Recover() { p.Hist.Recover() }

// maxWeight bounds a weight's magnitude: 8-bit weights as in the paper's
// hardware budget.
const maxWeight = 127

func clampWeight(w int16) int16 { return max(-maxWeight, min(maxWeight, w)) }

// StorageBits returns the predictor's storage budget in bits.
func (p *Perceptron) StorageBits() int {
	perW := 8
	n := 1 + int(p.cfg.GlobalBits) + int(p.cfg.LocalBits)
	return p.cfg.Perceptrons*n*perW + p.cfg.LocalEntries*int(p.cfg.LocalBits)
}
