package pipeline

// StateEntries counts the generator's non-zero counters and overflow
// entries: the pairs its encoded state holds.
func (g *LoadAddrGen) StateEntries() int {
	n := len(g.overflow)
	for _, c := range g.counts {
		if c != 0 {
			n++
		}
	}
	return n
}
