package engine

// SetSlowCheckConflicts sets the conflict count that earns a decided check a
// "slow check" log line, and returns what restores the threshold.
func SetSlowCheckConflicts(n int64) (restore func()) {
	old := slowCheckConflicts
	slowCheckConflicts = n
	return func() { slowCheckConflicts = old }
}
