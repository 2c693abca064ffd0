package chaos

// shrink greedily minimizes a failing program: as long as `failing`
// still reproduces, it removes one fault at a time until no single
// removal preserves the failure. The result is the minimal fault
// program to print in a counterexample report — small enough to read,
// deterministic enough to replay with runProgram.
//
// failing must be a pure function of the program (run it through
// runProgram on a fresh clock and report whether invariants broke);
// if p itself does not fail, it is returned unchanged.
func shrink(p Program, failing func(Program) bool) Program {
	if !failing(p) {
		return p
	}
	for changed := true; changed; {
		changed = false
		for i := range p.Faults {
			q := p
			q.Faults = make([]Fault, 0, len(p.Faults)-1)
			q.Faults = append(q.Faults, p.Faults[:i]...)
			q.Faults = append(q.Faults, p.Faults[i+1:]...)
			if failing(q) {
				p = q
				changed = true
				break
			}
		}
	}
	return p
}
