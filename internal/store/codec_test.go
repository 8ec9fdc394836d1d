package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lightyear/internal/core"
)

// realJournal writes a journal the way the store does: a timed solve, a
// solve with search statistics, and a bare verdict. The proven violation
// added between them is not journaled.
func realJournal(t testing.TB) []byte {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Add("a1b2c3d4", core.CheckResult{OK: true, Status: core.StatusOK, NumVars: 12, NumCons: 40, NumTerms: 7,
		SolveTime: time.Millisecond, TotalTime: 2 * time.Millisecond})
	s.Add("e5f6a7b8", core.CheckResult{OK: true, Status: core.StatusOK, NumVars: 3,
		Solver: core.SolveStats{Conflicts: 2, Decisions: 5, Propagations: 31, Learned: 1}})
	s.Add("0badf00d", core.CheckResult{Status: core.StatusFail,
		Counterexample: &core.Counterexample{Note: "route satisfies \"FromPeer\" but not <P>"}})
	s.Add("c9d0e1f2", core.CheckResult{OK: true, Status: core.StatusOK})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzJournal holds the codec to encoding/json, its reference: arbitrary
// journal bytes never panic Open, every line the codec accepts decodes to
// the record json.Unmarshal makes of it, and every record encodes to the
// bytes json.Marshal writes.
//
//	go test ./internal/store -run '^$' -fuzz FuzzJournal -fuzztime 10s
func FuzzJournal(f *testing.F) {
	real := realJournal(f)
	f.Add(real)
	f.Add(real[:len(real)-9]) // torn tail
	f.Add([]byte(`{"v":2,"key":"k","fp":"f","result":{"ok":true,"vars":9}}` + "\n"))
	f.Add([]byte(`{"key":"k","result":{"ok":false,"witness":"old"},"extra":[1,2]}` + "\n" + `not json` + "\n"))
	f.Add([]byte(`{"v":3,"key":"k","result":{"ok":true,"vars":-0,"solve_ns":1e3}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(dir); err == nil {
			s.Close()
		}

		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSpace(line)
			rec, _, ok := decodeRecord(line)
			if !ok {
				continue
			}
			var ref record
			if err := json.Unmarshal(line, &ref); err != nil {
				t.Fatalf("codec accepted %q, encoding/json rejects it: %v", line, err)
			}
			if !reflect.DeepEqual(rec, ref) {
				t.Fatalf("line %q\ncodec:         %+v\nencoding/json: %+v", line, rec, ref)
			}
			checkEncoding(t, &rec)
		}

		// A record made of the input: its bytes as the strings, its words
		// (negative ones included) as the numbers.
		words := make([]int64, 9)
		for i := range words {
			var w [8]byte
			copy(w[:], data[min(len(data), 8*i):])
			words[i] = int64(binary.LittleEndian.Uint64(w[:]))
		}
		rec := record{V: int(words[0]), Key: string(data),
			Result: resultRecord{OK: words[1]&1 == 1, NumVars: int(words[1]), NumCons: int(words[2]),
				NumTerms: int(words[3]), SolveNS: words[4], TotalNS: words[5]}}
		if words[6]&1 == 1 {
			rec.Result.Solver = &core.SolveStats{Conflicts: words[6], Decisions: words[7], Propagations: words[8], Restarts: -words[7], Learned: words[2]}
		}
		checkEncoding(t, &rec)
	})
}

// checkEncoding compares the codec's bytes for rec with json.Marshal's and,
// when the key scheme's records are those bytes, decodes them back.
func checkEncoding(t *testing.T, rec *record) {
	t.Helper()
	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	got := appendRecord(nil, rec)
	if !bytes.Equal(got, want) {
		t.Fatalf("record %+v\ncodec:        %s\njson.Marshal: %s", rec, got, want)
	}
	back, _, ok := decodeRecord(got)
	if !ok {
		t.Fatalf("codec cannot read its own line %s", got)
	}
	var ref record
	if err := json.Unmarshal(got, &ref); err != nil || !reflect.DeepEqual(back, ref) {
		t.Fatalf("line %s decodes to %+v, encoding/json to %+v (%v)", got, back, ref, err)
	}
}

// TestCodecReadsWhatItWrites: a journal the store wrote replays to the same
// results, one line per verdict that holds, with no network fingerprint.
func TestCodecReadsWhatItWrites(t *testing.T) {
	journal := realJournal(t)
	var recs []record
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		rec, hadFP, ok := decodeRecord(line)
		if !ok || hadFP {
			t.Fatalf("codec rejects the store's own line %s (fp %v)", line, hadFP)
		}
		var ref record
		if err := json.Unmarshal(line, &ref); err != nil || !reflect.DeepEqual(rec, ref) {
			t.Fatalf("line %s: codec %+v, encoding/json %+v (%v)", line, rec, ref, err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3 (the failure is not journaled):\n%s", len(recs), journal)
	}
	for _, rec := range recs {
		if !rec.Result.OK || rec.V != keyVersion {
			t.Errorf("journaled %+v, want v%d verdicts that hold", rec, keyVersion)
		}
	}

	// A line an older writer wrote: the fingerprint is read past, reported,
	// and dropped; the rest decodes as encoding/json decodes it.
	old := []byte(`{"v":4,"key":"a1b2","fp":"4f1c2a9d","result":{"ok":true,"vars":3}}`)
	rec, hadFP, ok := decodeRecord(old)
	var ref record
	if err := json.Unmarshal(old, &ref); !ok || !hadFP || err != nil || !reflect.DeepEqual(rec, ref) {
		t.Fatalf("legacy line: codec %+v (fp %v, ok %v), encoding/json %+v (%v)", rec, hadFP, ok, ref, err)
	}
}

// BenchmarkReplay decodes a journal line with the codec and with
// encoding/json.
func BenchmarkReplay(b *testing.B) {
	line := bytes.SplitN(realJournal(b), []byte("\n"), 3)[1]
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, ok := decodeRecord(line); !ok {
				b.Fatal("rejected")
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var rec record
			if err := json.Unmarshal(line, &rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
