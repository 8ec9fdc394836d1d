// Package store is the disk-persistent, content-addressed check-result
// store behind the engine's ResultCache seam: a JSON-lines journal of
// {check key → verdict} records that is replayed into memory on Open, so a
// warm start — a CLI rerun with -store, or an lyserve redeploy — serves
// previously solved checks without touching the solver.
//
// Results are addressed purely by the semantic check key (core.Check.Key):
// the key already hashes everything the verdict depends on (the filter
// policy, the predicates, the ghost updates and origination values), so it
// is sound across network states, processes, and suites — the same property
// the engine's in-memory cache and cross-job dedup rest on. Each record is
// filed under the key scheme's version (keyVersion, now 4: version 3 keys
// hashed the check's location, version 2 keys missed the ghosts' origination
// values on originate checks); records of another version are never served. Each record additionally carries the
// fingerprint of the network state that produced it (topology.Fingerprint)
// as provenance, which retention (Options.MaxFingerprints) and future
// sharded/remote stores use to scope what is kept without affecting lookup
// correctness.
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
// check anyway (engine.adapt), and a counterexample's routes are kept as
// their rendered text. The journal is append-only and crash-tolerant: every
// Add is flushed on its own, a truncated final line is ignored on replay,
// and re-recording an already-known key is skipped to keep warm reruns from
// growing the file. Journals that nevertheless accumulate superseded
// duplicate keys, unparsable lines or records of an older key scheme
// (crashes, older writers, concatenated directories) are compacted on Open:
// the file is atomically rewritten with exactly one record per key, so
// long-lived store directories stop growing unboundedly.
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
	V           int          `json:"v,omitempty"`
	Key         string       `json:"key"`
	Fingerprint string       `json:"fp,omitempty"`
	Result      resultRecord `json:"result"`
}

// resultRecord is the persisted portion of a core.CheckResult.
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
	Witness  string           `json:"witness,omitempty"` // rendered counterexample, failures only
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
	if r.Counterexample != nil {
		out.Witness = r.Counterexample.String()
	}
	return out
}

func (rr resultRecord) decode() core.CheckResult {
	out := core.CheckResult{
		OK:        rr.OK,
		NumVars:   rr.NumVars,
		NumCons:   rr.NumCons,
		NumTerms:  rr.NumTerms,
		SolveTime: time.Duration(rr.SolveNS),
		TotalTime: time.Duration(rr.TotalNS),
	}
	if rr.Solver != nil {
		out.Solver = *rr.Solver
	}
	// Only decided verdicts are ever journaled (Unknown results are not
	// cacheable), so Status follows directly from OK.
	if rr.OK {
		out.Status = core.StatusOK
	} else {
		out.Status = core.StatusFail
	}
	if rr.Witness != "" {
		out.Counterexample = &core.Counterexample{Note: rr.Witness}
	}
	return out
}

// Stats counts store traffic since Open.
type Stats struct {
	Loaded    int `json:"loaded"`              // distinct results replayed from the journal
	Hits      int `json:"hits"`                // Get calls served
	Misses    int `json:"misses"`              // Get calls not served
	Puts      int `json:"puts"`                // new results appended to the journal
	Compacted int `json:"compacted,omitempty"` // superseded journal lines dropped on Open
	Evicted   int `json:"evicted,omitempty"`   // results dropped by fingerprint retention on Open
}

// Options configure Open's replay and compaction behavior.
type Options struct {
	// MaxFingerprints, when positive, bounds retention by provenance: on
	// Open only results recorded under the N most recently written network
	// fingerprints are kept, and the journal is compacted to match — the
	// knob that stops a long-lived store directory from accumulating
	// results for network states that no longer exist. Recency is write
	// order, which survives compaction: the journal is rewritten with the
	// oldest fingerprint's records first and the newest last. Results
	// recorded without a fingerprint carry no provenance and are always
	// kept. 0 keeps everything.
	MaxFingerprints int
}

// Store is a disk-backed ResultCache. It is safe for concurrent use by one
// process; multi-process sharing of one directory is not supported (the
// sharding direction left open in the roadmap).
type Store struct {
	path string

	mu        sync.Mutex
	mem       map[string]record // full records, so compaction keeps provenance
	f         *os.File
	w         *bufio.Writer
	buf       []byte         // append's line buffer
	fp        string         // provenance fingerprint attached to subsequent Puts
	fpSeq     map[string]int // fingerprint → last write tick, for retention recency
	fpTick    int
	loaded    int
	hits      int
	misses    int
	puts      int
	compacted int
	evicted   int

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

// Open opens dir with default options (no fingerprint retention bound).
func Open(dir string) (*Store, error) { return OpenOptions(dir, Options{}) }

// OpenOptions creates the directory if needed, replays the journal —
// applying the fingerprint retention bound and compacting the file in
// place when it carries superseded duplicate keys or evicted results, so
// long-lived store directories stop growing unboundedly — and returns a
// store ready to serve Gets from memory and append Puts to disk.
func OpenOptions(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, journalName)
	s := &Store{path: path, mem: make(map[string]record), fpSeq: make(map[string]int)}

	lines := 0
	fpSeq := s.fpSeq // fingerprint → last journal line it was written on
	if f, err := os.Open(path); err == nil {
		fps := make(map[string]string) // interned provenance fingerprints
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			lines++
			rec, ok := decodeRecord(line, fps)
			if !ok || rec.Key == "" || rec.V != keyVersion {
				// Torn or foreign line (e.g. a crash mid-append), or a record
				// of another key scheme: skip it rather than refuse the rest
				// of the journal.
				continue
			}
			s.mem[rec.Key] = rec // last record for a key wins, as in Get
			if rec.Fingerprint != "" {
				fpSeq[rec.Fingerprint] = lines
			}
		}
		err := sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("store: replay %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.fpTick = lines
	s.evicted = s.retain(opts.MaxFingerprints, fpSeq)
	s.loaded = len(s.mem)

	if lines > len(s.mem) {
		// The journal carries superseded duplicates, torn lines, records of
		// an older key scheme, or retention-evicted results: rewrite it with exactly one record per
		// retained key. Best-effort — a failed compaction leaves the
		// original journal in place (evicted results stay dropped from
		// memory either way).
		if err := s.compact(); err != nil {
			s.warn("journal compaction failed", err)
		} else {
			s.compacted = lines - len(s.mem) - s.evicted
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.f, s.w = f, bufio.NewWriter(f)
	return s, nil
}

// retain applies the MaxFingerprints bound to the replayed records: only
// results whose provenance is among the max most recently written
// fingerprints (by last journal appearance) survive; fingerprint-less
// records always do. Evicted fingerprints are dropped from the recency
// index too. Returns the number of evicted results.
func (s *Store) retain(max int, fpSeq map[string]int) int {
	if max <= 0 || len(fpSeq) <= max {
		return 0
	}
	fps := make([]string, 0, len(fpSeq))
	for fp := range fpSeq {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fpSeq[fps[i]] > fpSeq[fps[j]] })
	keep := make(map[string]bool, max)
	for _, fp := range fps[:max] {
		keep[fp] = true
	}
	evicted := 0
	for key, rec := range s.mem {
		if rec.Fingerprint != "" && !keep[rec.Fingerprint] {
			delete(s.mem, key)
			evicted++
		}
	}
	for fp := range fpSeq {
		if !keep[fp] {
			delete(fpSeq, fp)
		}
	}
	return evicted
}

// compact atomically rewrites the journal from memory: one record per key,
// written to a temp file and renamed over the original. Records are
// ordered by their fingerprint's write recency (oldest first,
// provenance-less records before all), then by key for determinism — so
// the rewritten journal preserves the write-order recency that
// fingerprint retention (Options.MaxFingerprints) reads back on the next
// Open. Called before the append handle is opened.
func (s *Store) compact() error {
	keys := make([]string, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		si, sj := s.fpSeq[s.mem[keys[i]].Fingerprint], s.fpSeq[s.mem[keys[j]].Fingerprint]
		if si != sj {
			return si < sj
		}
		return keys[i] < keys[j]
	})

	tmp, err := os.CreateTemp(filepath.Dir(s.path), journalName+".compact-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	var b []byte
	for _, k := range keys {
		rec := s.mem[k]
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

// SetFingerprint sets the network-state fingerprint recorded as provenance
// on subsequent Puts (see topology.Fingerprint).
func (s *Store) SetFingerprint(fp string) {
	s.mu.Lock()
	s.fp = fp
	s.mu.Unlock()
}

// Get implements engine.ResultCache. The returned result carries no
// Kind/Loc/Desc; the engine relabels it for the receiving check.
func (s *Store) Get(key string) (core.CheckResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.mem[key]
	if !ok {
		s.misses++
		s.metMisses.Inc()
		return core.CheckResult{}, false
	}
	s.hits++
	s.metHits.Inc()
	return rec.Result.decode(), true
}

// Add implements engine.ResultCache: record the result in memory and append
// it to the journal. Keys already present are left untouched — results are
// content-addressed, so the first verdict recorded for a key is the
// verdict.
func (s *Store) Add(key string, val core.CheckResult) {
	if key == "" || val.Status == core.StatusUnknown {
		// Unknown is not a verdict: journaling it would pin "insufficient
		// budget" as the key's answer forever.
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
	rec := record{V: keyVersion, Key: key, Fingerprint: s.fp, Result: encodeResult(val)}
	s.mem[key] = rec
	if s.fp != "" {
		s.fpTick++
		s.fpSeq[s.fp] = s.fpTick // recency for retention on a later Open
	}
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
		Compacted: s.compacted, Evicted: s.evicted}
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
