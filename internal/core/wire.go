package core

import (
	"fmt"
	"time"

	"lightyear/internal/policy"
	"lightyear/internal/routemodel"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// This file defines the wire forms that let obligations and check results
// travel between processes: internal/fabric serializes an Obligation on
// the coordinator, ships it to a worker, and ships the CheckResult back. The encoding is plain JSON-tagged structs —
// no registry, no reflection — because the obligation grammar is closed:
// three content families over the closed predicate/action unions of
// internal/spec and internal/policy.
//
// Two invariants matter:
//
//   - Key is shipped verbatim. Check keys are the identity under which the
//     engine caches and dedups, so a decoded obligation keeps the key the
//     coordinator computed.
//   - Originate obligations ship their routes with origination ghosts
//     pre-applied (GhostDef holds funcs, which do not serialize). By
//     originatedWithGhosts semantics the decoded obligation evaluates
//     identically with an empty ghost list.

// EdgeWire is the serializable form of a directed topology edge.
type EdgeWire struct {
	From string `json:"from"`
	To   string `json:"to"`
}

func encodeEdge(e topology.Edge) EdgeWire {
	return EdgeWire{From: string(e.From), To: string(e.To)}
}

func (w EdgeWire) edge() topology.Edge {
	return topology.Edge{From: topology.NodeID(w.From), To: topology.NodeID(w.To)}
}

// LocationWire is the serializable form of a Location: exactly one of
// Router or Edge is set.
type LocationWire struct {
	Router string    `json:"router,omitempty"`
	Edge   *EdgeWire `json:"edge,omitempty"`
}

func encodeLocation(l Location) LocationWire {
	if l.IsEdge() {
		e := encodeEdge(l.Edge())
		return LocationWire{Edge: &e}
	}
	return LocationWire{Router: string(l.Router())}
}

func (w LocationWire) location() Location {
	if w.Edge != nil {
		return AtEdge(w.Edge.edge())
	}
	return AtRouter(topology.NodeID(w.Router))
}

// filterWire serializes a filterObligation.
type filterWire struct {
	Universe     *spec.UniverseWire   `json:"universe,omitempty"`
	Map          *policy.RouteMapWire `json:"map,omitempty"`
	GhostActions []*policy.ActionWire `json:"ghost_actions,omitempty"`
	Pre          *spec.PredWire       `json:"pre"`
	Post         *spec.PredWire       `json:"post"`
	MustAccept   bool                 `json:"must_accept,omitempty"`
}

// implicationWire serializes an implicationObligation.
type implicationWire struct {
	Universe *spec.UniverseWire `json:"universe,omitempty"`
	Pre      *spec.PredWire     `json:"pre"`
	Post     *spec.PredWire     `json:"post"`
}

// originateWire serializes an originateObligation. Routes carry origination
// ghosts pre-applied; the ghost definitions themselves (functions) never
// travel.
type originateWire struct {
	Edge   EdgeWire                `json:"edge"`
	Routes []*routemodel.RouteWire `json:"routes,omitempty"`
	Inv    *spec.PredWire          `json:"inv"`
}

// ObligationWire is the serializable form of an Obligation. Exactly one of
// Filter/Implication/Originate is set, mirroring the content families.
type ObligationWire struct {
	Kind string       `json:"kind"`
	Loc  LocationWire `json:"loc"`
	Desc string       `json:"desc,omitempty"`
	Key  string       `json:"key"`

	Filter      *filterWire      `json:"filter,omitempty"`
	Implication *implicationWire `json:"implication,omitempty"`
	Originate   *originateWire   `json:"originate,omitempty"`
}

// EncodeObligation converts an obligation to wire form. It fails when the
// obligation references predicates or actions defined outside the closed
// spec/policy unions (no wire tag); the fabric answers such an obligation
// Unknown.
func EncodeObligation(ob *Obligation) (*ObligationWire, error) {
	if ob == nil {
		return nil, fmt.Errorf("core: nil obligation")
	}
	w := &ObligationWire{
		Kind: ob.Kind.String(),
		Loc:  encodeLocation(ob.Loc),
		Desc: ob.Desc.String(),
		Key:  ob.key,
	}
	switch {
	case ob.filter != nil:
		f := ob.filter
		m, err := policy.EncodeRouteMap(f.m)
		if err != nil {
			return nil, err
		}
		ghostActs, err := policy.EncodeActions(f.ghostActs)
		if err != nil {
			return nil, err
		}
		pre, err := spec.EncodePred(f.pre.pred)
		if err != nil {
			return nil, err
		}
		post, err := spec.EncodePred(f.post.pred)
		if err != nil {
			return nil, err
		}
		w.Filter = &filterWire{
			Universe:     spec.EncodeUniverse(f.u),
			Map:          m,
			GhostActions: ghostActs,
			Pre:          pre,
			Post:         post,
			MustAccept:   f.mustAccept,
		}
	case ob.implication != nil:
		i := ob.implication
		pre, err := spec.EncodePred(i.pre.pred)
		if err != nil {
			return nil, err
		}
		post, err := spec.EncodePred(i.post.pred)
		if err != nil {
			return nil, err
		}
		w.Implication = &implicationWire{
			Universe: spec.EncodeUniverse(i.u),
			Pre:      pre,
			Post:     post,
		}
	case ob.originate != nil:
		o := ob.originate
		inv, err := spec.EncodePred(o.inv.pred)
		if err != nil {
			return nil, err
		}
		ow := &originateWire{Edge: encodeEdge(o.e), Inv: inv}
		for _, r := range o.routes {
			ow.Routes = append(ow.Routes, routemodel.EncodeRoute(originatedWithGhosts(r, o.e, o.ghosts)))
		}
		w.Originate = ow
	default:
		return nil, fmt.Errorf("core: obligation %q has no content family", ob.key)
	}
	return w, nil
}

// kindFromString inverts CheckKind.String.
func kindFromString(s string) (CheckKind, error) {
	for _, k := range []CheckKind{ImportCheck, ExportCheck, OriginateCheck, ImplicationCheck, PropagationCheck, InterferenceCheck} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown check kind %q", s)
}

// Obligation reconstructs the obligation a wire form describes. The decoded
// obligation reports the shipped Key verbatim, so it keeps the identity the
// coordinator caches and dedups it under.
func (w *ObligationWire) Obligation() (*Obligation, error) {
	if w == nil {
		return nil, fmt.Errorf("core: nil obligation wire")
	}
	kind, err := kindFromString(w.Kind)
	if err != nil {
		return nil, err
	}
	ob := &Obligation{
		Kind: kind,
		Loc:  w.Loc.location(),
		Desc: Text(w.Desc),
		key:  w.Key,
	}
	families := 0
	if w.Filter != nil {
		families++
		f := w.Filter
		m, err := f.Map.RouteMap()
		if err != nil {
			return nil, err
		}
		ghostActs, err := policy.DecodeActions(f.GhostActions)
		if err != nil {
			return nil, err
		}
		pre, err := f.Pre.Pred()
		if err != nil {
			return nil, err
		}
		post, err := f.Post.Pred()
		if err != nil {
			return nil, err
		}
		ob.filter = &filterObligation{
			u:          f.Universe.Universe(),
			m:          m,
			ghostActs:  ghostActs,
			pre:        &predicate{pred: pre},
			post:       &predicate{pred: post},
			mustAccept: f.MustAccept,
		}
	}
	if w.Implication != nil {
		families++
		i := w.Implication
		pre, err := i.Pre.Pred()
		if err != nil {
			return nil, err
		}
		post, err := i.Post.Pred()
		if err != nil {
			return nil, err
		}
		ob.implication = &implicationObligation{u: i.Universe.Universe(), pre: &predicate{pred: pre}, post: &predicate{pred: post}}
	}
	if w.Originate != nil {
		families++
		o := w.Originate
		inv, err := o.Inv.Pred()
		if err != nil {
			return nil, err
		}
		routes := make([]*routemodel.Route, 0, len(o.Routes))
		for _, rw := range o.Routes {
			r, err := rw.Route()
			if err != nil {
				return nil, err
			}
			routes = append(routes, r)
		}
		ob.originate = &originateObligation{e: o.Edge.edge(), routes: routes, inv: &predicate{pred: inv}}
	}
	if families != 1 {
		return nil, fmt.Errorf("core: obligation wire %q has %d content families, want 1", w.Key, families)
	}
	return ob, nil
}

// CounterexampleWire is the serializable form of a Counterexample.
type CounterexampleWire struct {
	Input  *routemodel.RouteWire `json:"input,omitempty"`
	Output *routemodel.RouteWire `json:"output,omitempty"`
	Note   string                `json:"note,omitempty"`
}

// CheckResultWire is the serializable form of a CheckResult as it travels
// back from a solver worker. Identity fields (Kind/Loc/Desc) are omitted:
// the coordinator re-stamps them from the local obligation, exactly as the
// engine re-stamps relabeled checks.
type CheckResultWire struct {
	OK             bool                `json:"ok"`
	Status         string              `json:"status"`
	Backend        string              `json:"backend,omitempty"`
	Counterexample *CounterexampleWire `json:"counterexample,omitempty"`

	NumVars     int        `json:"num_vars,omitempty"`
	NumCons     int        `json:"num_cons,omitempty"`
	NumTerms    int        `json:"num_terms,omitempty"`
	SolveTimeNS int64      `json:"solve_time_ns,omitempty"`
	TotalTimeNS int64      `json:"total_time_ns,omitempty"`
	Solver      SolveStats `json:"solver,omitempty"`
}

// statusFromString inverts Status.String.
func statusFromString(s string) (Status, error) {
	switch s {
	case "ok":
		return StatusOK, nil
	case "fail":
		return StatusFail, nil
	case "unknown":
		return StatusUnknown, nil
	default:
		return 0, fmt.Errorf("core: unknown status %q", s)
	}
}

// EncodeCheckResult converts a check result to wire form.
func EncodeCheckResult(cr CheckResult) *CheckResultWire {
	w := &CheckResultWire{
		OK:          cr.OK,
		Status:      cr.Status.String(),
		Backend:     cr.Backend,
		NumVars:     cr.NumVars,
		NumCons:     cr.NumCons,
		NumTerms:    cr.NumTerms,
		SolveTimeNS: int64(cr.SolveTime),
		TotalTimeNS: int64(cr.TotalTime),
		Solver:      cr.Solver,
	}
	if ce := cr.Counterexample; ce != nil {
		w.Counterexample = &CounterexampleWire{
			Input:  routemodel.EncodeRoute(ce.Input),
			Output: routemodel.EncodeRoute(ce.Output),
			Note:   ce.Note,
		}
	}
	return w
}

// CheckResult reconstructs the result a wire form describes. Identity
// fields are zero; the caller stamps them from the obligation it solved.
func (w *CheckResultWire) CheckResult() (CheckResult, error) {
	var cr CheckResult
	if w == nil {
		return cr, fmt.Errorf("core: nil check result wire")
	}
	status, err := statusFromString(w.Status)
	if err != nil {
		return cr, err
	}
	cr.OK = w.OK
	cr.Status = status
	cr.Backend = w.Backend
	cr.NumVars = w.NumVars
	cr.NumCons = w.NumCons
	cr.NumTerms = w.NumTerms
	cr.SolveTime = time.Duration(w.SolveTimeNS)
	cr.TotalTime = time.Duration(w.TotalTimeNS)
	cr.Solver = w.Solver
	if cw := w.Counterexample; cw != nil {
		in, err := cw.Input.Route()
		if err != nil {
			return cr, err
		}
		out, err := cw.Output.Route()
		if err != nil {
			return cr, err
		}
		cr.Counterexample = &Counterexample{Input: in, Output: out, Note: cw.Note}
	}
	// OK must mirror Status; a malformed worker response must not smuggle an
	// inconsistent pair into the cache.
	if cr.OK != (cr.Status == StatusOK) {
		return cr, fmt.Errorf("core: inconsistent wire result: ok=%v status=%s", cr.OK, cr.Status)
	}
	return cr, nil
}
