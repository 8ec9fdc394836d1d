package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"lightyear/internal/core"
)

// TestStoreRoundTripAcrossReopen: a verdict that holds survives a restart
// with its solve statistics; a failure, an Unknown and a keyless result are
// never journaled.
func TestStoreRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	pass := core.CheckResult{OK: true, NumVars: 12, NumCons: 34,
		SolveTime: 5 * time.Millisecond, TotalTime: 9 * time.Millisecond}
	fail := core.CheckResult{OK: false, Status: core.StatusFail,
		Counterexample: &core.Counterexample{Note: "filter accepts a bogon"}}
	s.Add("key-pass", pass)
	s.Add("key-fail", fail)
	s.Add("key-unknown", core.CheckResult{Status: core.StatusUnknown})
	s.Add("", core.CheckResult{OK: true}) // uncacheable: must be ignored
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if st := s.Stats(); st.Puts != 1 || st.Loaded != 0 {
		t.Fatalf("stats = %+v, want 1 put, 0 loaded", st)
	}
	if _, ok := s.Get("key-fail"); ok {
		t.Fatal("a failure is served from the store")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// "Process restart": reopen and serve the verdict from the journal.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Loaded != 1 || s2.Len() != 1 {
		t.Fatalf("after reopen Len = %d, stats = %+v, want 1 loaded", s2.Len(), st)
	}
	got, ok := s2.Get("key-pass")
	if !ok || !got.OK || got.Status != core.StatusOK || got.NumVars != 12 || got.NumCons != 34 ||
		got.SolveTime != 5*time.Millisecond || got.TotalTime != 9*time.Millisecond {
		t.Fatalf("key-pass round trip = %+v/%v", got, ok)
	}
	for _, key := range []string{"key-fail", "absent"} {
		if _, ok := s2.Get(key); ok {
			t.Fatalf("%s must miss", key)
		}
	}
	if st := s2.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
}

func TestStoreSkipsDuplicatesAndTornLines(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Add("k", core.CheckResult{OK: true})
	s.Add("k", core.CheckResult{OK: false}) // duplicate: first verdict wins
	if st := s.Stats(); st.Puts != 1 {
		t.Fatalf("duplicate Add journaled: %+v", st)
	}
	if r, _ := s.Get("k"); !r.OK {
		t.Fatal("duplicate Add overwrote the recorded verdict")
	}
	s.Close()

	// Simulate a crash mid-append: a torn trailing line.
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"v":4,"key":"torn","result":{"ok`)
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn journal must not fail replay: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("Len = %d after torn-line replay, want 1", s2.Len())
	}
	if _, ok := s2.Get("k"); !ok {
		t.Fatal("intact record lost")
	}
}

// TestCompactOnOpen: a journal an older writer left — superseded duplicate
// keys, a journaled failure, network fingerprints on every record and a
// torn line — is rewritten on Open with exactly one record per key that
// holds, in key order and without fingerprints; a clean journal is left
// byte-identical.
func TestCompactOnOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	journal := `{"v":4,"key":"d","fp":"fp-old","result":{"ok":false,"witness":"input:  stale"}}
{"v":4,"key":"b","fp":"fp-1","result":{"ok":true}}
{"v":4,"key":"a","fp":"fp-1","result":{"ok":true,"vars":3}}
{"v":4,"key":"a","fp":"fp-new","result":{"ok":true,"vars":7}}
{"v":4,"key":"torn","result":{"ok
`
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Loaded != 2 || st.Compacted != 3 {
		t.Fatalf("stats = %+v, want 2 loaded / 3 compacted", st)
	}
	if r, ok := s.Get("a"); !ok || !r.OK || r.NumVars != 7 {
		t.Fatalf("compaction must keep the superseding record: %+v/%v", r, ok)
	}
	if _, ok := s.Get("d"); ok {
		t.Fatal("a journaled failure is served")
	}
	// Appends after compaction must still work.
	s.Add("c", core.CheckResult{OK: true})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"v":4,"key":"a","result":{"ok":true,"vars":7}}
{"v":4,"key":"b","result":{"ok":true}}
{"v":4,"key":"c","result":{"ok":true}}
`
	if string(data) != want {
		t.Fatalf("compacted journal:\n%swant\n%s", data, want)
	}

	// Reopen: nothing left to compact, everything still served.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Loaded != 3 || st.Compacted != 0 {
		t.Fatalf("second open stats = %+v, want 3 loaded / 0 compacted", st)
	}
	data2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data2) != string(data) {
		t.Fatal("reopening a clean journal must not rewrite it")
	}
}

// TestFingerprintOnlyJournalRewritten: a journal whose only legacy content
// is the network fingerprint on each record stays warm, and Open rewrites
// it without the field although no line is dropped.
func TestFingerprintOnlyJournalRewritten(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	journal := `{"v":4,"key":"a","fp":"fp-1","result":{"ok":true,"vars":3}}` + "\n"
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if r, ok := s.Get("a"); !ok || r.NumVars != 3 || s.Stats().Compacted != 0 {
		t.Fatalf("legacy record: %+v/%v, stats %+v", r, ok, s.Stats())
	}
	data, err := os.ReadFile(path)
	if want := `{"v":4,"key":"a","result":{"ok":true,"vars":3}}` + "\n"; err != nil || string(data) != want {
		t.Fatalf("journal after open (%v):\n%swant\n%s", err, data, want)
	}
}

// TestLegacyUnknownRecordsNotServed: journals written before results carried
// a Status could record budget-exhausted checks as plain failures. Serving
// one would resurrect a solver give-up as a proven violation forever. Such
// journals predate the key-version field, so nothing in them is served any
// more — give-up or real verdict — and a fresh verdict files normally.
func TestLegacyUnknownRecordsNotServed(t *testing.T) {
	dir := t.TempDir()
	legacy := `{"key":"cafe01","result":{"ok":false,"witness":"note:   solver budget exhausted (unknown)"}}` + "\n" +
		`{"key":"cafe02","result":{"ok":false,"witness":"note:   filter accepts but result violates \"p\""}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "results.jsonl"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for _, key := range []string{"cafe01", "cafe02"} {
		if _, ok := s.Get(key); ok {
			t.Fatalf("legacy record %s served under the new key scheme", key)
		}
	}
	s.Add("cafe01", core.CheckResult{OK: true, Status: core.StatusOK})
	if r, ok := s.Get("cafe01"); !ok || r.Status != core.StatusOK {
		t.Fatalf("fresh verdict not served: ok=%v r=%+v", ok, r)
	}

	// And an Unknown result is still never journaled.
	s.Add("cafe03", core.CheckResult{Status: core.StatusUnknown})
	if _, ok := s.Get("cafe03"); ok {
		t.Fatal("unknown result was journaled")
	}
}

// TestKeyVersionBump: a journal written under an old key scheme (records
// without "v", or of versions 1, 2 and 3) is ignored — never served, even for a key that happens to
// repeat — and compacted away on Open, a torn final record across the bump
// does not stop the replay, and what the new scheme writes round-trips
// through the same results.jsonl and the same Get/Add.
func TestKeyVersionBump(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	old := `{"key":"k1","fp":"fp-a","result":{"ok":false,"witness":"old verdict"}}
{"key":"k2","fp":"fp-a","result":{"ok":true,"vars":3}}
{"v":1,"key":"k3","result":{"ok":true}}
{"v":2,"key":"k5","fp":"fp-a","result":{"ok":true}}
{"v":3,"key":"k6","fp":"fp-a","result":{"ok":false,"witness":"located verdict"}}
{"key":"k4","result":{"ok":tr`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("pre-bump journal with a torn tail must open: %v", err)
	}
	if s.Len() != 0 || s.Stats().Loaded != 0 {
		t.Fatalf("old-version records loaded: len %d, stats %+v", s.Len(), s.Stats())
	}
	for _, k := range []string{"k1", "k2", "k3", "k4", "k5", "k6"} {
		if _, ok := s.Get(k); ok {
			t.Fatalf("old-version record %s served", k)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil || len(data) != 0 {
		t.Fatalf("old-version records not compacted away (%v):\n%s", err, data)
	}

	// Same key, new scheme: the new verdict is the one filed and served.
	s.Add("k1", core.CheckResult{OK: true, Status: core.StatusOK, NumVars: 9})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	if want := `{"v":4,"key":"k1","result":{"ok":true,"vars":9}}` + "\n"; string(data) != want {
		t.Fatalf("journal after the bump:\n%swant\n%s", data, want)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if r, ok := s2.Get("k1"); !ok || !r.OK || r.NumVars != 9 || s2.Stats().Compacted != 0 {
		t.Fatalf("new-version record not replayed cleanly: %+v/%v, stats %+v", r, ok, s2.Stats())
	}
}
