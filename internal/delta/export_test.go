package delta

import "lightyear/internal/core"

// EnumerateInFull makes every later run of v generate all of its checks: the
// reference a restricted update is compared with.
func (v *Verifier) EnumerateInFull() { v.full = true }

// Served returns how many problems the last run served from the previous
// run's index instead of enumerating them in full.
func (v *Verifier) Served() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.served
}

// Indexes returns how many location indexes the last run kept: one per
// edge frame of its failures-only safety problems.
func (v *Verifier) Indexes() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.index)
}

// SetHooks makes every later run of v report to h.
func (v *Verifier) SetHooks(h Hooks) { v.hooks = h }

// Tap makes h also observe the loop itself: enumerated is called each time
// a run generates a family's edge checks, submitted with each problem's
// checks as they are submitted.
func Tap(h Hooks, enumerated func(), submitted func(i int, checks []core.Check)) Hooks {
	h.enumerated, h.submitted = enumerated, submitted
	return h
}
