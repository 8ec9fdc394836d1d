package routemodel

import "testing"

func TestPrefixSetExact(t *testing.T) {
	s := NewPrefixSet(MustPrefix("10.0.0.0/8"), MustPrefix("192.168.0.0/16"))
	if !s.Matches(MustPrefix("10.0.0.0/8")) {
		t.Fatal("exact match failed")
	}
	if s.Matches(MustPrefix("10.1.0.0/16")) {
		t.Fatal("exact set must not match longer prefixes")
	}
	if s.Matches(MustPrefix("11.0.0.0/8")) {
		t.Fatal("unrelated prefix matched")
	}
}

func TestPrefixSetRange(t *testing.T) {
	s := &PrefixSet{}
	s.AddRange(MustPrefix("10.0.0.0/8"), 8, 24)
	if !s.Matches(MustPrefix("10.0.0.0/8")) || !s.Matches(MustPrefix("10.1.0.0/16")) || !s.Matches(MustPrefix("10.1.1.0/24")) {
		t.Fatal("in-range lengths should match")
	}
	if s.Matches(MustPrefix("10.1.1.0/25")) {
		t.Fatal("length 25 out of range")
	}
	if s.Matches(MustPrefix("11.0.0.0/16")) {
		t.Fatal("outside address space")
	}
}

func TestPrefixSetNilAndEmpty(t *testing.T) {
	var s *PrefixSet
	if s.Matches(MustPrefix("10.0.0.0/8")) {
		t.Fatal("nil set matches nothing")
	}
	if !s.Empty() {
		t.Fatal("nil set is empty")
	}
	e := &PrefixSet{}
	if !e.Empty() || e.Matches(MustPrefix("10.0.0.0/8")) {
		t.Fatal("empty set")
	}
}

func TestPrefixSetInvalidRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&PrefixSet{}).AddRange(MustPrefix("10.0.0.0/16"), 8, 24) // ge < len
}
