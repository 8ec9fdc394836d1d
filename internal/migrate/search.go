package migrate

import (
	"context"
	"errors"
	"fmt"

	"lightyear/internal/netgen"
	"lightyear/internal/topology"
)

var errBudget = errors.New("migrate: search budget exhausted")

// verdict is the outcome of verifying one intermediate state. The search
// memoizes it by semantic network fingerprint: an ordering's safety depends
// only on which states it traverses, so two orders reaching the same state
// share one verification. Stats are those of the first visit (the dirty
// subset depends on the path taken to the state; the verdict does not).
type verdict struct {
	ok        bool
	undecided bool
	reason    string // why the state does not hold ("" when ok)
	sr        StepResult
	fails     []FailedCheck
	net       *topology.Network
}

// search runs the safe-order DFS for an unordered change set. Two cuts keep
// the walk far below k! orderings:
//
//   - memoization by state fingerprint: the reachable states form a subset
//     lattice (at most 2^k - 1), and each is verified at most once;
//   - commutativity pruning: adjacent steps touching disjoint routers edit
//     disjoint per-edge check footprints, so swapping them swaps between two
//     intermediate states that verify identically — only the canonical
//     (ascending-index) interleaving of each commuting pair is explored.
//
// The search verifies at most budget() fresh states; exhausting the budget
// reports infeasibility with BudgetExhausted set. A genuine exhaustion of
// the pruned space yields the longest safe prefix found and what blocked
// every continuation from it.
func (r *runner) search(ctx context.Context) error {
	c := r.c
	n := len(c.steps)
	budget := c.budget()
	start := r.v.PinnedNetwork()

	memo := make(map[string]*verdict)
	var (
		best      *Infeasibility
		bestDepth = -1
	)

	var dfs func(cur *topology.Network, applied uint, order []int, last int) (bool, error)
	dfs = func(cur *topology.Network, applied uint, order []int, last int) (bool, error) {
		if len(order) == n {
			r.foundOrder = append([]int(nil), order...)
			return true, nil
		}
		var blocked []BlockedStep
		for i := 0; i < n; i++ {
			if applied&(1<<uint(i)) != 0 {
				continue
			}
			if err := ctx.Err(); err != nil {
				return false, err
			}
			// Canonical-order cut: if i commutes with the step just applied
			// and precedes it in the plan, the order running i first
			// traverses states that verify identically and is explored from
			// the parent node.
			if last >= 0 && i < last && netgen.IndependentMutations(*c.steps[i].mutation, *c.steps[last].mutation) {
				r.res.PrunedOrders++
				continue
			}
			st := &c.steps[i]
			next, err := netgen.ApplyMutation(cur, *st.mutation)
			if err != nil {
				blocked = append(blocked, BlockedStep{
					PlanStep: i, Label: st.label,
					Reason: fmt.Sprintf("cannot be applied at this point: %v", err),
				})
				continue
			}
			fp := next.Fingerprint()
			vd, seen := memo[fp]
			if seen {
				r.res.MemoHits++
			} else {
				if r.res.SearchStates >= budget {
					return false, errBudget
				}
				r.res.SearchStates++
				if vd, err = r.verifyStep(next, len(order), i, st.label, true); err != nil {
					return false, err
				}
				memo[fp] = vd
			}
			if vd.ok {
				found, err := dfs(vd.net, applied|1<<uint(i), append(append([]int(nil), order...), i), i)
				if found || err != nil {
					return found, err
				}
			} else {
				reason := "the intermediate state violates the plan's properties"
				if vd.undecided {
					reason = "the intermediate state is undecided (solver budget)"
				}
				blocked = append(blocked, BlockedStep{PlanStep: i, Label: st.label, Reason: reason, FailingChecks: vd.fails})
			}
		}
		if len(order) > bestDepth {
			bestDepth = len(order)
			best = &Infeasibility{
				SafePrefix:   append([]int(nil), order...),
				PrefixLabels: r.labelsFor(order),
				Blocked:      blocked,
			}
		}
		return false, nil
	}

	found, err := dfs(start, 0, nil, -1)
	switch {
	case errors.Is(err, errBudget):
		if best == nil {
			best = &Infeasibility{}
		}
		best.BudgetExhausted = true
		r.res.Infeasible = true
		r.res.Explanation = best
		r.res.Reason = fmt.Sprintf("search budget (%d states) exhausted before a safe order was found", budget)
		r.emit(Event{Type: EvOrderInfeasible, Step: -1, PlanStep: -1,
			Reason: r.res.Reason, States: r.res.SearchStates})
		return nil
	case err != nil:
		return err
	case !found:
		if best == nil {
			best = &Infeasibility{}
		}
		r.res.Infeasible = true
		r.res.Explanation = best
		r.res.Reason = "no safe order exists: every ordering reaches a violating or inapplicable step"
		r.emit(Event{Type: EvOrderInfeasible, Step: -1, PlanStep: -1,
			Reason: r.res.Reason, States: r.res.SearchStates})
		return nil
	}

	// Rebuild the winning chain's per-step stats from the memo, renumbering
	// each to its position in the found order.
	cur := start
	for pos, idx := range r.foundOrder {
		next, aerr := netgen.ApplyMutation(cur, *c.steps[idx].mutation)
		if aerr != nil {
			return fmt.Errorf("migrate: replaying found order: %v", aerr)
		}
		vd := memo[next.Fingerprint()]
		if vd == nil {
			return fmt.Errorf("migrate: found order traverses an unverified state at position %d", pos)
		}
		sr := vd.sr
		sr.Step, sr.PlanStep = pos, idx
		r.res.Steps = append(r.res.Steps, sr)
		cur = vd.net
	}

	// Memo hits can leave the verifier pinned mid-tree; land it on the
	// final state so a session's next update deltas against the migrated
	// network.
	finalFP := cur.Fingerprint()
	if r.v.Fingerprint() != finalFP {
		if _, err := verified(r.v.Update(cur)); err != nil {
			return err
		}
	}

	r.res.OK = true
	r.res.Order = r.foundOrder
	r.res.OrderLabels = r.labelsFor(r.foundOrder)
	r.reorders.With().Inc()
	r.emit(Event{Type: EvOrderFound, Step: -1, PlanStep: -1, OK: true,
		Order: r.res.Order, Labels: r.res.OrderLabels, States: r.res.SearchStates})
	return nil
}

// labelsFor maps plan-step indices to their labels.
func (r *runner) labelsFor(order []int) []string {
	out := make([]string, len(order))
	for i, idx := range order {
		out[i] = r.c.steps[idx].label
	}
	return out
}
