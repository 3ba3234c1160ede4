package metrics

// Reuse returns how many dirty nodes' kept scores e has read without
// deriving them again, and how many hops it has left applied, over its
// life.
func Reuse(e *Incremental) (nodes, hops int) { return e.reusedNodes, e.keptHops }

// StaleTerms returns how many of the certificate terms that e holds for
// the scores its last evaluation read differ from a count, now, of the
// slack lengths they belong to.
func StaleTerms(e *Incremental) int {
	stale := 0
	for i, u := range e.terms {
		for r, c := range u {
			if c >= 0 && c != e.b.runs.Term(r, e.groups[i]) {
				stale++
			}
		}
	}
	return stale
}
