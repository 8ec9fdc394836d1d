package config

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
)

// Normalize returns the canonical form of a configuration source: the lexed
// token stream re-rendered with single spaces. Comments, blank lines,
// indentation, and any other whitespace layout vanish, so two sources that
// differ only cosmetically normalize identically. A source the lexer
// rejects is returned unchanged: normalization must never hide a
// syntax error behind a stale canonical form, and the parse that follows
// will report it.
func Normalize(src string) string {
	toks, err := lex(src)
	if err != nil {
		return src
	}
	var b strings.Builder
	for _, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.text)
	}
	return b.String()
}

// SourceFingerprint is the hex SHA-256 digest of Normalize(src): a cheap
// source-level identity that matches across cosmetic edits. Equal source
// fingerprints imply the same parsed network, but not vice versa (the same
// network can be written many ways). It is not a verification identity:
// whether a state changed is decided on the parsed network's
// topology.Fingerprint (internal/delta), which also knows whether the
// pinned verdicts are complete. The benchmark harness uses it to time the
// lexer.
func SourceFingerprint(src string) string {
	sum := sha256.Sum256([]byte(Normalize(src)))
	return hex.EncodeToString(sum[:])
}
