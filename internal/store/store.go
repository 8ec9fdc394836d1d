// Package store is the disk-persistent, content-addressed check-result
// store behind the engine's ResultCache seam — the tier the engine probes
// when its in-memory LRU misses: a JSON-lines journal of
// {check key → verdict} records that is replayed into memory on Open, so a
// warm start — a CLI rerun with -store, or an lyserve redeploy — serves
// previously solved checks without touching the solver.
//
// Results are addressed purely by the semantic check key (core.Check.Key):
// the key already hashes everything the verdict depends on (the filter
// policy, the predicates, the ghost updates and origination values), so it
// is sound across network states, processes, and suites — the same property
// the engine's in-memory cache and cross-job dedup rest on. A record is the
// key and its verdict, nothing else: it carries no network state, so every
// run, job and session that poses a check shares its record. Each record is
// filed under the key scheme's version (keyVersion, now 4: version 3 keys
// hashed the check's location, version 2 keys missed the ghosts' origination
// values on originate checks); records of another version are never served.
// The store has no retention bound: it keeps every verdict it was given.
//
// Only verdicts that hold are journaled. A failure is solved once per
// process (the engine's in-memory tier then serves it), so its witness is
// always the structured counterexample a solve produces, never a replayed
// rendering of one; a failing key costs a few dozen microseconds to solve,
// and a run with failures is the one somebody reads.
//
// The journal has one line shape, written and read by a hand-written codec
// (codec.go) rather than encoding/json's reflection: its bytes are exactly
// what json.Marshal of the record writes, replay parses that canonical form
// directly, and a line it cannot parse is skipped like a torn one. Replaying
// a warm journal is most of what opening a store costs, and a CLI run with
// -store opens one every time.
//
// Persisted results deliberately drop the per-check identity
// (Kind/Loc/Desc): the engine relabels shared results for the receiving
// check anyway (engine.adapt). The journal is append-only and
// crash-tolerant: every Add is flushed on its own, a truncated final line
// is ignored on replay, and re-recording an already-known key is skipped to
// keep warm reruns from growing the file. Journals that nevertheless carry
// superseded duplicate keys, unparsable lines, failures, records of an
// older key scheme, or the network fingerprint older writers attached to
// each record (crashes, older writers, concatenated directories) are
// compacted on Open: the file is atomically rewritten with exactly one
// record per key, in key order.
package store

import (
	"bufio"
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/logging"
	"lightyear/internal/telemetry"
)

// journalName is the journal file created inside the store directory.
const journalName = "results.jsonl"

// keyVersion names the check-key scheme records are filed under. Version 4
// is core's fingerprint-composed key without the check's location, so every
// session posing one check shares its record; version 3 hashed the
// location's node IDs into the same parts, version 2 keyed originate checks
// on the ghost names alone where version 3 added their origination values,
// and journals written before version 2 (no "v" field) hashed rendered
// text. A key of another scheme can never be asked for again, so replay
// skips such records — they are never served — and the compaction on Open
// drops them from the file.
const keyVersion = 4

// record is one journal line. Its json tags define the line format; the
// codec in codec.go writes and reads exactly that format without reflection.
type record struct {
	V      int          `json:"v,omitempty"`
	Key    string       `json:"key"`
	Result resultRecord `json:"result"`
}

// resultRecord is the persisted portion of a core.CheckResult. OK is always
// true on what the store writes; replay drops the failures older writers
// recorded.
type resultRecord struct {
	OK      bool `json:"ok"`
	NumVars int  `json:"vars,omitempty"`
	NumCons int  `json:"cons,omitempty"`
	// NumTerms and Solver persist the encoding size and CDCL search
	// provenance of the solve that produced the verdict, so replayed
	// results still explain what the original solve cost.
	NumTerms int              `json:"terms,omitempty"`
	Solver   *core.SolveStats `json:"solver,omitempty"`
	SolveNS  int64            `json:"solve_ns,omitempty"`
	TotalNS  int64            `json:"total_ns,omitempty"`
}

func encodeResult(r core.CheckResult) resultRecord {
	out := resultRecord{
		OK:       r.OK,
		NumVars:  r.NumVars,
		NumCons:  r.NumCons,
		NumTerms: r.NumTerms,
		SolveNS:  r.SolveTime.Nanoseconds(),
		TotalNS:  r.TotalTime.Nanoseconds(),
	}
	if r.Solver.Depth() {
		s := r.Solver
		out.Solver = &s
	}
	return out
}

// decode returns the recorded verdict, which holds: only OK results are
// journaled or replayed.
func (rr resultRecord) decode() core.CheckResult {
	out := core.CheckResult{
		OK:        true,
		Status:    core.StatusOK,
		NumVars:   rr.NumVars,
		NumCons:   rr.NumCons,
		NumTerms:  rr.NumTerms,
		SolveTime: time.Duration(rr.SolveNS),
		TotalTime: time.Duration(rr.TotalNS),
	}
	if rr.Solver != nil {
		out.Solver = *rr.Solver
	}
	return out
}

// Stats counts store traffic since Open.
type Stats struct {
	Loaded    int `json:"loaded"`              // distinct results replayed from the journal
	Hits      int `json:"hits"`                // Get calls served
	Misses    int `json:"misses"`              // Get calls not served
	Puts      int `json:"puts"`                // new results appended to the journal
	Compacted int `json:"compacted,omitempty"` // journal lines dropped on Open
}

// Store is a disk-backed ResultCache. It is safe for concurrent use by one
// process; multi-process sharing of one directory is not supported (the
// sharding direction left open in the roadmap).
type Store struct {
	path string

	mu        sync.Mutex
	mem       map[string]resultRecord
	f         *os.File
	w         *bufio.Writer
	buf       []byte // append's line buffer
	loaded    int
	hits      int
	misses    int
	puts      int
	compacted int

	// Telemetry handles (nil without SetTelemetry; emission is nil-safe).
	metHits   *telemetry.Counter
	metMisses *telemetry.Counter
	metPuts   *telemetry.Counter

	log *slog.Logger // nil until SetLogger; warnings fall back to slog.Default
}

// SetLogger routes the store's warnings (journal append/compact failures)
// through a structured logger. Call alongside SetTelemetry, right after
// Open; without one, warnings go to slog's process default.
func (s *Store) SetLogger(l *slog.Logger) {
	s.mu.Lock()
	s.log = logging.Component(l, "store")
	s.mu.Unlock()
}

// warn emits one structured warning. Callers hold s.mu or are pre-serve
// (Open-time compaction).
func (s *Store) warn(msg string, err error) {
	l := s.log
	if l == nil {
		l = logging.Component(slog.Default(), "store")
	}
	l.Warn(msg, slog.String("path", s.path), slog.Any("error", err))
}

// ProbeWritable verifies the journal's directory still accepts new files —
// the readiness signal lyserve's /readyz reports for the store component.
// It probes the directory rather than the open append handle deliberately:
// an already-open descriptor keeps accepting writes after its directory is
// made read-only, which is exactly the failure this probe must surface.
func (s *Store) ProbeWritable() error {
	f, err := os.CreateTemp(filepath.Dir(s.path), ".writable-probe-*")
	if err != nil {
		return fmt.Errorf("store: journal directory not writable: %w", err)
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
	return nil
}

// SetTelemetry points the store's traffic counters at a recorder and
// registers a journal-size gauge. Call once, before the store serves
// traffic (lyserve does so right after Open).
func (s *Store) SetTelemetry(rec *telemetry.Recorder) {
	if rec == nil {
		return
	}
	s.mu.Lock()
	s.metHits = rec.Counter("lightyear_store_hits_total",
		"Store lookups served from the journal-backed cache.").With()
	s.metMisses = rec.Counter("lightyear_store_misses_total",
		"Store lookups not present in the journal-backed cache.").With()
	s.metPuts = rec.Counter("lightyear_store_puts_total",
		"New results appended to the store journal.").With()
	s.mu.Unlock()
	rec.GaugeFunc("lightyear_store_journal_results",
		"Distinct check results retained in the store journal.", nil,
		func() []telemetry.Sample {
			return []telemetry.Sample{{Value: float64(s.Len())}}
		})
}

// Open creates the directory if needed, replays the journal — compacting
// the file in place when it carries anything but one current record per
// key (see the package doc) — and returns a store ready to serve Gets from
// memory and append Puts to disk.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, journalName)
	s := &Store{path: path, mem: make(map[string]resultRecord)}

	lines, legacy := 0, false
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			lines++
			rec, hadFP, ok := decodeRecord(line)
			if !ok || rec.Key == "" || rec.V != keyVersion || !rec.Result.OK {
				// Torn or foreign line (e.g. a crash mid-append), a record
				// of another key scheme, or a failure an older writer
				// journaled: skip it rather than refuse the rest of the
				// journal.
				continue
			}
			legacy = legacy || hadFP
			s.mem[rec.Key] = rec.Result // last record for a key wins, as in Get
		}
		err := sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("store: replay %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.loaded = len(s.mem)

	if lines > len(s.mem) || legacy {
		// Rewrite the journal with exactly one record per key and no
		// network fingerprints. Best-effort — a failed compaction leaves
		// the original journal in place, which replays the same way.
		if err := s.compact(); err != nil {
			s.warn("journal compaction failed", err)
		} else {
			s.compacted = lines - len(s.mem)
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.f, s.w = f, bufio.NewWriter(f)
	return s, nil
}

// compact atomically rewrites the journal from memory: one record per key,
// in key order, written to a temp file and renamed over the original.
// Called before the append handle is opened.
func (s *Store) compact() error {
	keys := make([]string, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	tmp, err := os.CreateTemp(filepath.Dir(s.path), journalName+".compact-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	var b []byte
	for _, k := range keys {
		rec := record{V: keyVersion, Key: k, Result: s.mem[k]}
		b = append(appendRecord(b[:0], &rec), '\n')
		if _, err := w.Write(b); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), s.path)
}

// Get implements engine.ResultCache. The returned result carries no
// Kind/Loc/Desc; the engine relabels it for the receiving check.
func (s *Store) Get(key string) (core.CheckResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rr, ok := s.mem[key]
	if !ok {
		s.misses++
		s.metMisses.Inc()
		return core.CheckResult{}, false
	}
	s.hits++
	s.metHits.Inc()
	return rr.decode(), true
}

// Add implements engine.ResultCache: record a verdict that holds in memory
// and append it to the journal. Failures and Unknowns are not recorded (see
// the package doc; an Unknown is not a verdict at all, and journaling it
// would pin "insufficient budget" as the key's answer forever). Keys
// already present are left untouched — results are content-addressed, so
// the first verdict recorded for a key is the verdict.
func (s *Store) Add(key string, val core.CheckResult) {
	if key == "" || !val.OK {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return // closed
	}
	if _, dup := s.mem[key]; dup {
		return
	}
	rec := record{V: keyVersion, Key: key, Result: encodeResult(val)}
	s.mem[key] = rec.Result
	s.puts++
	s.metPuts.Inc()
	if err := s.append(&rec); err != nil {
		// Disk trouble degrades the store to in-memory; verification
		// results are reproducible, so losing persistence is not fatal.
		s.warn("journal append failed", err)
	}
}

// append writes one record and flushes it, so each Add is durable on its
// own.
func (s *Store) append(rec *record) error {
	s.buf = append(appendRecord(s.buf[:0], rec), '\n')
	if _, err := s.w.Write(s.buf); err != nil {
		return err
	}
	return s.w.Flush()
}

// Len implements engine.ResultCache.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// Stats returns the traffic counters since Open.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Loaded: s.loaded, Hits: s.hits, Misses: s.misses, Puts: s.puts,
		Compacted: s.compacted}
}

// Close flushes and closes the journal. The store must not be used after
// Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
