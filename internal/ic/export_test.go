package ic

import "dita/internal/randx"

// Simulate runs one IC diffusion from the seed set and returns the set of
// informed workers as a boolean slice of length G.N(). Seeds are informed
// at iteration zero; propagation proceeds in rounds until no new worker is
// informed, exactly as Section III-C1 describes.
func (m *Model) Simulate(seeds []int32, rng *randx.Rand) []bool {
	c := newCascade(m.G.N())
	c.run(m, seeds, rng)
	return c.informed
}

// SimulateTrace runs one diffusion and returns, for every worker, the
// iteration at which it was informed (-1 if never). Seeds have iteration
// 0. Useful for inspecting propagation depth.
func (m *Model) SimulateTrace(seeds []int32, rng *randx.Rand) []int32 {
	round := make([]int32, m.G.N())
	for i := range round {
		round[i] = -1
	}
	frontier := make([]int32, 0, len(seeds))
	for _, s := range seeds {
		if round[s] < 0 {
			round[s] = 0
			frontier = append(frontier, s)
		}
	}
	var next []int32
	for r := int32(1); len(frontier) > 0; r++ {
		next = next[:0]
		for _, u := range frontier {
			for _, v := range m.G.Out(u) {
				if round[v] >= 0 {
					continue
				}
				if rng.Bool(m.prob(u, v)) {
					round[v] = r
					next = append(next, v)
				}
			}
		}
		frontier, next = next, frontier
	}
	return round
}
