package model

// AuditMerges counts, until the returned stop is called, the support
// points PrefixStack levels merge on demand (lazy) and the points the
// eager reference merges for the same pushes (eager): each stack seen
// gets an eagerStack shadow that takes every Push the stack takes. It is
// for serial searches: the counters are not synchronized. Calling stop
// again returns the same counts.
func AuditMerges() (stop func() (lazy, eager int)) {
	shadows := map[*PrefixStack]*eagerStack{}
	var lazy, eager int
	pushAudit = func(s *PrefixStack, pg *PreparedGroup) {
		ref, ok := shadows[s]
		if !ok {
			ref = newEagerStack()
			shadows[s] = ref
		}
		ref.steps = ref.steps[:len(s.steps)]
		eager += ref.push(pg)
	}
	mergeAudit = func(points int) { lazy += points }
	return func() (int, int) {
		pushAudit, mergeAudit = nil, nil
		return lazy, eager
	}
}
