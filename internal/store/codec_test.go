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
	"unsafe"

	"lightyear/internal/core"
)

// realJournal writes a journal the way the store does: a proven violation
// whose witness needs escaping, a solve with search statistics, and a
// cached verdict under a second fingerprint.
func realJournal(t testing.TB) []byte {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFingerprint("4f1c2a")
	s.Add("a1b2c3d4", core.CheckResult{Status: core.StatusFail, NumVars: 12, NumCons: 40, NumTerms: 7,
		SolveTime: time.Millisecond, TotalTime: 2 * time.Millisecond,
		Counterexample: &core.Counterexample{Note: "route satisfies \"FromPeer ⇒ ¬prefix∈bogons\" but not <P> & \"Q\"\n\tx"}})
	s.Add("e5f6a7b8", core.CheckResult{OK: true, Status: core.StatusOK, NumVars: 3,
		Solver: core.SolveStats{Conflicts: 2, Decisions: 5, Propagations: 31, Learned: 1}})
	s.SetFingerprint("9d8e7f")
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
			rec, ok := decodeRecord(line, map[string]string{})
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
		half := len(data) / 2
		rec := record{V: int(words[0]), Key: string(data[:half]), Fingerprint: string(data[half:]),
			Result: resultRecord{OK: words[1]&1 == 1, NumVars: int(words[1]), NumCons: int(words[2]),
				NumTerms: int(words[3]), SolveNS: words[4], TotalNS: words[5], Witness: string(data)}}
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
	back, ok := decodeRecord(got, map[string]string{})
	if !ok {
		t.Fatalf("codec cannot read its own line %s", got)
	}
	var ref record
	if err := json.Unmarshal(got, &ref); err != nil || !reflect.DeepEqual(back, ref) {
		t.Fatalf("line %s decodes to %+v, encoding/json to %+v (%v)", got, back, ref, err)
	}
}

// TestCodecReadsWhatItWrites: a journal the store wrote replays to the same
// results, and the fingerprint every line repeats is one string in memory.
func TestCodecReadsWhatItWrites(t *testing.T) {
	journal := realJournal(t)
	fps := map[string]string{}
	var recs []record
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		rec, ok := decodeRecord(line, fps)
		if !ok {
			t.Fatalf("codec rejects the store's own line %s", line)
		}
		var ref record
		if err := json.Unmarshal(line, &ref); err != nil || !reflect.DeepEqual(rec, ref) {
			t.Fatalf("line %s: codec %+v, encoding/json %+v (%v)", line, rec, ref, err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 3 || len(fps) != 2 {
		t.Fatalf("%d records, %d distinct fingerprints; want 3 and 2", len(recs), len(fps))
	}
	if unsafe.StringData(recs[0].Fingerprint) != unsafe.StringData(recs[1].Fingerprint) {
		t.Error("a repeated fingerprint is not interned")
	}
	if !bytes.Contains(journal, []byte(`\u003cP\u003e \u0026 \"Q\"\n\tx`)) {
		t.Errorf("witness not escaped as encoding/json writes it: %s", journal)
	}
}

// BenchmarkReplay decodes a journal line with the codec and with
// encoding/json.
func BenchmarkReplay(b *testing.B) {
	line := bytes.SplitN(realJournal(b), []byte("\n"), 3)[1]
	b.Run("codec", func(b *testing.B) {
		fps := map[string]string{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := decodeRecord(line, fps); !ok {
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
