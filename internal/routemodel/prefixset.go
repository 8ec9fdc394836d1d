package routemodel

// PrefixSet is a set of IPv4 prefixes with optional length bounds, used for
// prefix-list style matching: an entry (prefix, ge, le) matches a route
// prefix q when prefix covers q and ge <= q.Len <= le. This is how bogon
// lists and reused-IP sets are represented.
type PrefixSet struct {
	entries []PrefixRange
}

// PrefixRange is one prefix-list entry.
type PrefixRange struct {
	Prefix Prefix
	Ge     uint8 // minimum matched length (>= Prefix.Len)
	Le     uint8 // maximum matched length (<= 32)
}

// NewPrefixSet builds a set from exact prefixes (ge = le = prefix length).
func NewPrefixSet(prefixes ...Prefix) *PrefixSet {
	s := &PrefixSet{}
	for _, p := range prefixes {
		s.AddExact(p)
	}
	return s
}

// AddExact adds a prefix matched exactly.
func (s *PrefixSet) AddExact(p Prefix) {
	s.entries = append(s.entries, PrefixRange{Prefix: p.Canonical(), Ge: p.Len, Le: p.Len})
}

// AddRange adds a prefix matched with a ge..le length window. It panics on
// an invalid window, which indicates a generator or parser bug.
func (s *PrefixSet) AddRange(p Prefix, ge, le uint8) {
	if ge < p.Len || le > 32 || ge > le {
		panic("routemodel: invalid prefix range")
	}
	s.entries = append(s.entries, PrefixRange{Prefix: p.Canonical(), Ge: ge, Le: le})
}

// Entries returns the underlying entries. The slice must not be modified.
func (s *PrefixSet) Entries() []PrefixRange { return s.entries }

// Empty reports whether the set has no entries.
func (s *PrefixSet) Empty() bool { return s == nil || len(s.entries) == 0 }

// Matches reports whether route prefix q matches any entry.
func (s *PrefixSet) Matches(q Prefix) bool {
	if s == nil {
		return false
	}
	for _, e := range s.entries {
		if q.Len >= e.Ge && q.Len <= e.Le && e.Prefix.ContainsAddr(q.Addr) {
			return true
		}
	}
	return false
}
