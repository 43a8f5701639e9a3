package assign

import "dita/internal/model"

// Solve runs the selected algorithm over p.Pairs and returns the
// assignment set with per-pair influence and travel distance filled in.
// It is the sequential form of SolveTiled: SolveTiled at any
// parallelism returns a bit-identical assignment set.
func Solve(alg Algorithm, p *Problem) *model.AssignmentSet {
	set, _ := SolveTiled(alg, p, 1)
	return set
}
