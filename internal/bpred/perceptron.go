// The perceptron branch predictor (Jiménez & Lin, HPCA 2001), with the
// combined global+local history variant the paper pairs with the FTB
// front-end (Table 2: 512 perceptrons, 40-bit global history, 4096 x 14-bit
// local histories).
package bpred

import "math/bits"

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
//
// Each perceptron's input weights are packed eight to a word, one 8-bit
// lane per history bit: lane k of word j weighs global history bit 8j+k,
// and the local history bits follow from the next word boundary. A lane
// holds its weight plus 128 (excess-128), so training's ±127 bound keeps
// every lane in 1..255 and a lane never carries into its neighbour; lanes
// past the last history bit hold weight 0 and never train. Scoring masks
// a word by its eight history bits and adds its lanes pairwise into four
// 16-bit partial sums, which one multiply folds at the end; training
// steps every lane of a word at once.
type Perceptron struct {
	cfg PerceptronConfig
	// lanes holds the packed rows, len(valid) words each; bias and sum
	// hold each row's bias weight and the sum of its input weights.
	lanes []uint64
	bias  []int8
	sum   []int16
	// gWords is how many words of a row weigh the global history; valid
	// has a 1 in the low bit of every lane of a row that weighs a
	// history bit.
	gWords int
	valid  []uint64
	gmask  uint64
	local  *LocalHistory
	theta  int32
	mask   uint64
	Hist   HistPair // global history (speculative + retirement)
}

const (
	lanesLow  = 0x0101010101010101 // the low bit of every lane
	lanesZero = 0x8080808080808080 // every lane at weight 0
	lanes7F   = 0x7f7f7f7f7f7f7f7f
	pairsLow  = 0x00ff00ff00ff00ff // the even lanes of a word
)

// laneMasks[b] has lane k all ones when bit k of b is set.
var laneMasks = func() (t [256]uint64) {
	for b := range t {
		for k := 0; k < 8; k++ {
			if b>>k&1 == 1 {
				t[b] |= 0xff << (8 * k)
			}
		}
	}
	return t
}()

// NewPerceptron builds the predictor.
func NewPerceptron(cfg PerceptronConfig) *Perceptron {
	if cfg.Perceptrons <= 0 || cfg.Perceptrons&(cfg.Perceptrons-1) != 0 {
		panic("bpred: perceptron count must be a positive power of two")
	}
	if cfg.GlobalBits == 0 || cfg.GlobalBits > 64 {
		panic("bpred: perceptron global bits must be in 1..64")
	}
	local := NewLocalHistory(cfg.LocalEntries, cfg.LocalBits)
	gWords := int(cfg.GlobalBits+7) / 8
	stride := gWords + int(cfg.LocalBits+7)/8
	valid := make([]uint64, stride)
	for j := range valid {
		valid[j] = lanesLow
	}
	if r := cfg.GlobalBits % 8; r != 0 {
		valid[gWords-1] = lanesLow >> (64 - 8*r)
	}
	if r := cfg.LocalBits % 8; r != 0 {
		valid[stride-1] = lanesLow >> (64 - 8*r)
	}
	lanes := make([]uint64, cfg.Perceptrons*stride)
	for i := range lanes {
		lanes[i] = lanesZero
	}
	// Training threshold from Jiménez & Lin: theta = 1.93h + 14.
	h := int(cfg.GlobalBits + cfg.LocalBits)
	return &Perceptron{
		cfg:    cfg,
		lanes:  lanes,
		bias:   make([]int8, cfg.Perceptrons),
		sum:    make([]int16, cfg.Perceptrons),
		gWords: gWords,
		valid:  valid,
		gmask:  ^uint64(0) >> (64 - cfg.GlobalBits),
		local:  local,
		theta:  int32(float64(h)*1.93 + 14),
		mask:   uint64(cfg.Perceptrons - 1),
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

// row returns the packed input weights of perceptron idx.
func (p *Perceptron) row(idx uint64) []uint64 {
	n := len(p.valid)
	i := int(idx) * n
	return p.lanes[i : i+n : i+n]
}

// Predict computes the perceptron output for branch pc using the current
// speculative global history and committed local history.
func (p *Perceptron) Predict(pc uint64) PerceptronPred {
	return p.predictWith(pc, p.Hist.Spec)
}

// predictWith computes the output y = bias + Σ(weights of set bits) −
// Σ(weights of clear bits) as bias + 2·Σ(weights of set bits) − sum. Each
// word contributes its lanes under set bits, summed in excess-128 into
// four 16-bit partial sums (at most 12 words of 2·255 each per lane);
// the excess, 128 per set bit, comes off at the end.
func (p *Perceptron) predictWith(pc, ghist uint64) PerceptronPred {
	idx := p.index(pc)
	lhist := p.local.Get(pc)
	g := ghist & p.gmask
	row := p.row(idx)
	var acc uint64
	for j, w := range row[:p.gWords] {
		m := w & laneMasks[uint8(g>>(8*j))]
		acc += m&pairsLow + m>>8&pairsLow
	}
	for j, w := range row[p.gWords:] {
		m := w & laneMasks[uint8(lhist>>(8*j))]
		acc += m&pairsLow + m>>8&pairsLow
	}
	set := int32(acc*0x0001000100010001>>48) - 128*int32(bits.OnesCount64(g)+bits.OnesCount32(lhist))
	y := int32(p.bias[idx]) + 2*set - int32(p.sum[idx])
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
		p.train(pr, taken)
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

// train steps every weight of the predicting perceptron toward the
// outcome: the bias by t (+1 taken, -1 not taken) and each input weight
// by x·t, x being +1 for a set history bit and -1 for a clear one, each
// clamped to ±maxWeight.
func (p *Perceptron) train(pr PerceptronPred, taken bool) {
	b := int16(p.bias[pr.index]) - 1
	// flip turns the lanes of set bits into the lanes that step up.
	flip := uint64(lanesLow)
	if taken {
		b += 2
		flip = 0
	}
	p.bias[pr.index] = int8(clampWeight(b))
	g := pr.ghist & p.gmask
	row := p.row(pr.index)
	delta := 0
	for j := range row {
		var h uint8
		if j < p.gWords {
			h = uint8(g >> (8 * j))
		} else {
			h = uint8(pr.lhist >> (8 * (j - p.gWords)))
		}
		delta += stepLanes(&row[j], laneMasks[h]&lanesLow^flip, p.valid[j])
	}
	p.sum[pr.index] += int16(delta)
}

// stepLanes adds one to the lanes of *w flagged in up and takes one from
// the other lanes flagged in valid (flags are the low bit of a lane),
// except where a lane is at the bound (255 or 1 in excess-128): no lane
// then carries or borrows into its neighbour. It returns the change in the
// word's weight sum.
func stepLanes(w *uint64, up, valid uint64) int {
	up &= valid
	down := valid &^ up
	up &^= lanesEqual(*w, 0xff*lanesLow)
	down &^= lanesEqual(*w, lanesLow)
	*w += up - down
	return bits.OnesCount64(up) - bits.OnesCount64(down)
}

// lanesEqual returns a 1 in the low bit of every lane where w equals c.
func lanesEqual(w, c uint64) uint64 {
	x := w ^ c
	// A lane's top bit of (x&0x7f)+0x7f is set when its low seven bits
	// are not all zero, and no lane carries into the next.
	return ^((x&lanes7F + lanes7F) | x | lanes7F) >> 7
}

// weights appends perceptron r's weights in the snapshot order: the bias,
// then one per global history bit, then one per local history bit.
func (p *Perceptron) weights(dst []int16, r int) []int16 {
	dst = append(dst, int16(p.bias[r]))
	row := p.row(uint64(r))
	for i := range int(p.cfg.GlobalBits) {
		dst = append(dst, int16(row[i/8]>>(8*(i%8))&0xff)-128)
	}
	for i := range int(p.cfg.LocalBits) {
		dst = append(dst, int16(row[p.gWords+i/8]>>(8*(i%8))&0xff)-128)
	}
	return dst
}

// setWeights stores perceptron r's weights, given in the order weights
// appends them and each within ±maxWeight.
func (p *Perceptron) setWeights(r int, w []int16) {
	p.bias[r] = int8(w[0])
	row := p.row(uint64(r))
	for j := range row {
		row[j] = lanesZero
	}
	sum := 0
	set := func(word, k int, v int16) {
		row[word] = row[word]&^(0xff<<(8*k)) | uint64(v+128)<<(8*k)
		sum += int(v)
	}
	for i, v := range w[1 : 1+p.cfg.GlobalBits] {
		set(i/8, i%8, v)
	}
	for i, v := range w[1+p.cfg.GlobalBits:] {
		set(p.gWords+i/8, i%8, v)
	}
	p.sum[r] = int16(sum)
}

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
