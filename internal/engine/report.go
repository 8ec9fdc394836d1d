package engine

import (
	"lightyear/internal/core"
)

// This file defines the canonical machine-readable encoding of a
// core.Report. It is shared by `lightyear -json` and the lyserve HTTP API,
// so both surfaces emit byte-compatible documents.

// CounterexampleJSON is the JSON form of a core.Counterexample, with the
// routes rendered in their canonical string form.
type CounterexampleJSON struct {
	Input  string `json:"input,omitempty"`
	Output string `json:"output,omitempty"`
	Note   string `json:"note,omitempty"`
}

// CheckResultJSON is the JSON form of one core.CheckResult.
type CheckResultJSON struct {
	Kind string `json:"kind"`
	Loc  string `json:"loc"`
	Desc string `json:"desc"`
	OK   bool   `json:"ok"`
	// Status is "ok", "fail", or "unknown" — unknown means the solver gave
	// up (budget exhausted) without refuting the check.
	Status string `json:"status"`
	// Backend labels the solver path that decided the check (e.g. "native",
	// "portfolio/pos-phase", "tiered/full"); empty for replayed results.
	Backend  string `json:"backend,omitempty"`
	NumVars  int    `json:"num_vars"`
	NumCons  int    `json:"num_cons"`
	NumTerms int    `json:"num_terms,omitempty"`
	// Solver is the per-check CDCL search provenance; nil for checks decided
	// without search (concrete evaluation, replayed results).
	Solver         *core.SolveStats    `json:"solver,omitempty"`
	SolveNanos     int64               `json:"solve_ns"`
	TotalNanos     int64               `json:"total_ns"`
	Counterexample *CounterexampleJSON `json:"counterexample,omitempty"`
}

// ReportJSON is the JSON form of a core.Report. NumFailed counts proven
// violations only; NumUnknown counts undecided checks separately.
type ReportJSON struct {
	Property   string            `json:"property"`
	OK         bool              `json:"ok"`
	NumChecks  int               `json:"num_checks"`
	NumFailed  int               `json:"num_failed"`
	NumUnknown int               `json:"num_unknown,omitempty"`
	MaxVars    int               `json:"max_vars"`
	MaxCons    int               `json:"max_cons"`
	SolveNanos int64             `json:"solve_ns"`
	TotalNanos int64             `json:"total_ns"`
	Checks     []CheckResultJSON `json:"checks"`
}

// EncodeReport converts a report to its canonical JSON form.
func EncodeReport(r *core.Report) ReportJSON {
	out := ReportJSON{
		Property:   r.Property.String(),
		OK:         r.OK(),
		NumChecks:  r.NumChecks(),
		NumFailed:  len(r.HardFailures()),
		NumUnknown: len(r.Unknowns()),
		MaxVars:    r.MaxVars(),
		MaxCons:    r.MaxCons(),
		SolveNanos: r.SolveTime().Nanoseconds(),
		TotalNanos: r.TotalTime.Nanoseconds(),
		Checks:     make([]CheckResultJSON, 0, len(r.Results)),
	}
	for i := range r.Results {
		out.Checks = append(out.Checks, encodeCheckResult(&r.Results[i]))
	}
	return out
}

func encodeCheckResult(r *core.CheckResult) CheckResultJSON {
	out := CheckResultJSON{
		Kind:       r.Kind.String(),
		Loc:        r.Loc.String(),
		Desc:       r.Desc.String(),
		OK:         r.OK,
		Status:     r.Status.String(),
		Backend:    r.Backend,
		NumVars:    r.NumVars,
		NumCons:    r.NumCons,
		NumTerms:   r.NumTerms,
		SolveNanos: r.SolveTime.Nanoseconds(),
		TotalNanos: r.TotalTime.Nanoseconds(),
	}
	if r.Solver.Depth() {
		s := r.Solver
		out.Solver = &s
	}
	if ce := r.Counterexample; ce != nil {
		j := &CounterexampleJSON{Note: ce.Note}
		if ce.Input != nil {
			j.Input = ce.Input.String()
		}
		if ce.Output != nil {
			j.Output = ce.Output.String()
		}
		out.Counterexample = j
	}
	return out
}
