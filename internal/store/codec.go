package store

import (
	"encoding/json"
	"math"
	"strconv"

	"lightyear/internal/core"
)

// The journal holds one line shape only, so it is read and written by the
// hand-written codec below rather than by encoding/json's reflection: replay
// is the whole cost of opening a warm store. appendRecord writes exactly the
// bytes json.Marshal(record) writes — same field order, same omitempty, and
// encoding/json's own string escaping. decodeRecord accepts that canonical
// form and nothing else; whatever it accepts decodes to the record
// json.Unmarshal would produce, and a line it rejects is skipped on replay
// like a torn one (FuzzJournal checks all three against encoding/json).
// The reader also accepts, and discards, the network fingerprint ("fp")
// that older writers put after the key, so their journals stay warm.

// appendRecord appends rec's journal line, without the newline.
func appendRecord(b []byte, rec *record) []byte {
	b = append(b, '{')
	if rec.V != 0 {
		b = strconv.AppendInt(append(b, `"v":`...), int64(rec.V), 10)
		b = append(b, ',')
	}
	b = appendString(append(b, `"key":`...), rec.Key)
	r := &rec.Result
	b = strconv.AppendBool(append(b, `,"result":{"ok":`...), r.OK)
	b = appendNonZero(b, `,"vars":`, int64(r.NumVars))
	b = appendNonZero(b, `,"cons":`, int64(r.NumCons))
	b = appendNonZero(b, `,"terms":`, int64(r.NumTerms))
	if s := r.Solver; s != nil {
		b = strconv.AppendInt(append(b, `,"solver":{"conflicts":`...), s.Conflicts, 10)
		b = strconv.AppendInt(append(b, `,"decisions":`...), s.Decisions, 10)
		b = strconv.AppendInt(append(b, `,"propagations":`...), s.Propagations, 10)
		b = strconv.AppendInt(append(b, `,"restarts":`...), s.Restarts, 10)
		b = strconv.AppendInt(append(b, `,"learned":`...), s.Learned, 10)
		b = append(b, '}')
	}
	b = appendNonZero(b, `,"solve_ns":`, r.SolveNS)
	b = appendNonZero(b, `,"total_ns":`, r.TotalNS)
	return append(b, "}}"...)
}

// appendNonZero writes an omitempty integer field.
func appendNonZero(b []byte, field string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, field...), v, 10)
}

// appendString writes s as a JSON string. Keys are hex, so they are copied
// between quotes; anything that needs escaping goes through encoding/json,
// whose HTML escaping and invalid-UTF-8 replacement the journal has always
// had.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// plain reports whether c stands for itself inside a JSON string as
// encoding/json writes one: printable ASCII other than the quote, the
// backslash and the HTML-escaped <, > and &.
func plain(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// decodeRecord parses one journal line in the canonical form appendRecord
// writes, or in that form with an older writer's "fp" field, which it
// skips and reports (hadFP) so that Open rewrites the journal without it.
func decodeRecord(line []byte) (rec record, hadFP, ok bool) {
	p := lineParser{b: line, ok: true}
	p.lit(`{`)
	if p.opt(`"v":`) {
		rec.V = int(p.int(strconv.IntSize))
		p.lit(`,`)
	}
	p.lit(`"key":`)
	rec.Key = p.str()
	if hadFP = p.opt(`,"fp":`); hadFP {
		p.str()
	}
	r := &rec.Result
	p.lit(`,"result":{"ok":`)
	r.OK = p.bool()
	if p.opt(`,"vars":`) {
		r.NumVars = int(p.int(strconv.IntSize))
	}
	if p.opt(`,"cons":`) {
		r.NumCons = int(p.int(strconv.IntSize))
	}
	if p.opt(`,"terms":`) {
		r.NumTerms = int(p.int(strconv.IntSize))
	}
	if p.opt(`,"solver":{"conflicts":`) {
		r.Solver = new(core.SolveStats)
		r.Solver.Conflicts = p.int(64)
		p.lit(`,"decisions":`)
		r.Solver.Decisions = p.int(64)
		p.lit(`,"propagations":`)
		r.Solver.Propagations = p.int(64)
		p.lit(`,"restarts":`)
		r.Solver.Restarts = p.int(64)
		p.lit(`,"learned":`)
		r.Solver.Learned = p.int(64)
		p.lit(`}`)
	}
	if p.opt(`,"solve_ns":`) {
		r.SolveNS = p.int(64)
	}
	if p.opt(`,"total_ns":`) {
		r.TotalNS = p.int(64)
	}
	p.lit(`}}`)
	return rec, hadFP, p.ok && p.i == len(p.b)
}

// lineParser is a cursor over one line. The first mismatch clears ok; every
// later step is then a no-op, so decodeRecord reads straight through.
type lineParser struct {
	b  []byte
	i  int
	ok bool
}

// opt consumes s if the line continues with it.
func (p *lineParser) opt(s string) bool {
	if p.ok && len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

// lit consumes s, which the line must continue with.
func (p *lineParser) lit(s string) {
	if !p.opt(s) {
		p.ok = false
	}
}

func (p *lineParser) bool() bool {
	if p.opt("true") {
		return true
	}
	p.lit("false")
	return false
}

// int reads a JSON integer that fits in a signed integer of the given bit
// size. Fractions and exponents are left unread, so the next lit fails on
// them, as json.Unmarshal fails to put them in an integer field.
func (p *lineParser) int(bits int) int64 {
	if !p.ok {
		return 0
	}
	neg := p.opt("-")
	start := p.i
	var u uint64
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		d := uint64(p.b[p.i] - '0')
		if u > (math.MaxUint64-d)/10 {
			p.ok = false
			return 0
		}
		u = u*10 + d
		p.i++
	}
	limit := uint64(1) << (bits - 1) // |min|; max is one less
	switch n := p.i - start; {
	case n == 0, n > 1 && p.b[start] == '0':
		p.ok = false
	case neg && u <= limit:
		return int64(-u)
	case !neg && u < limit:
		return int64(u)
	default:
		p.ok = false
	}
	return 0
}

// str reads a JSON string. One of printable ASCII without escapes is
// copied; anything else is handed to encoding/json, which is what
// json.Unmarshal would have produced.
func (p *lineParser) str() string {
	if !p.ok || p.i >= len(p.b) || p.b[p.i] != '"' {
		p.ok = false
		return ""
	}
	start := p.i + 1
	for j := start; j < len(p.b); j++ {
		c := p.b[j]
		if c == '"' {
			p.i = j + 1
			return string(p.b[start:j])
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return p.escaped(start - 1)
		}
	}
	p.ok = false
	return ""
}

// escaped decodes the string token starting at the quote at b[open] with
// encoding/json.
func (p *lineParser) escaped(open int) string {
	for j := open + 1; j < len(p.b); j++ {
		switch p.b[j] {
		case '\\':
			j++
		case '"':
			var s string
			if err := json.Unmarshal(p.b[open:j+1], &s); err != nil {
				p.ok = false
				return ""
			}
			p.i = j + 1
			return s
		}
	}
	p.ok = false
	return ""
}
