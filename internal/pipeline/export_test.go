package pipeline

// StateEntries counts the generator's non-zero counters and overflow
// entries: the pairs its encoded state holds.
func (g *LoadAddrGen) StateEntries() int {
	nz, _ := g.nonZero()
	return nz + len(g.overflow)
}
