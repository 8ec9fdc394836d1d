// Package config implements Lightyear's configuration language: a compact,
// vendor-style DSL describing the BGP topology (routers, external neighbors,
// peering sessions) and policy (prefix lists, community lists, route maps,
// per-session import/export bindings, originations). Parse turns a
// configuration text into a topology.Network ready for verification.
//
// The grammar (EBNF, '#' starts a line comment):
//
//	config       = { stmt } .
//	stmt         = node | external | peering | prefixList | commList |
//	               routeMap | importBind | exportBind | originate .
//	node         = "node" atom "{" { "as" num | "role" atom | "region" atom } "}" .
//	external     = "external" atom "{" { "as" num | "role" atom } "}" .
//	peering      = "peering" atom atom .
//	prefixList   = "prefix-list" atom "{" { prefix [ "ge" num ] [ "le" num ] } "}" .
//	commList     = "community-list" atom "{" { community } "}" .
//	routeMap     = "route-map" atom "{" [ "default" ("permit"|"deny") ]
//	               { "term" num ("permit"|"deny") "{" { match | set } "}" } "}" .
//	match        = "match" ( "prefix-list" atom | "prefix" prefix |
//	               "community" community | "community-list" atom |
//	               "path-contains" num | "plen" ("<="|">=") num |
//	               "pathlen" "<=" num | "local-pref" ("="|"<="|">=") num |
//	               "med" ("="|"<=") num | "not" match' ) .
//	set          = "set" ( "community" ("add"|"delete") community |
//	               "community" "none" | "local-pref" num | "med" num |
//	               "next-hop" num | "prepend" num num ) .
//	importBind   = "import" atom "->" atom "map" atom .
//	exportBind   = "export" atom "->" atom "map" atom .
//	originate    = "originate" atom "->" atom "route" prefix
//	               { "lp" num | "med" num | "next-hop" num |
//	                 "community" community | "aspath" num { "," num } } .
package config

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies lexer tokens.
type tokKind int

const (
	tokAtom tokKind = iota // identifiers, numbers, prefixes, communities
	tokLBrace
	tokRBrace
	tokArrow
	tokComma
	tokOp // <=, >=, =
	tokEOF
)

type token struct {
	kind tokKind
	text string
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokLBrace:
		return "{"
	case tokRBrace:
		return "}"
	case tokArrow:
		return "->"
	case tokComma:
		return ","
	case tokEOF:
		return "<eof>"
	default:
		return t.text
	}
}

// lex tokenizes the input. Atoms are maximal runs of letters, digits, and
// the punctuation used inside names, prefixes, and communities (. / : _ -).
// A "-" beginning "->" is the arrow token. The slice is sized for a token
// per 5 bytes of source, more than generated configurations hold (one per
// 5.7 to 7.1 bytes), so it is allocated once rather than grown by doubling.
func lex(src string) ([]token, error) {
	toks := make([]token, 0, len(src)/5+1)
	line := 1
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '{':
			toks = append(toks, token{tokLBrace, "{", line})
			i++
		case c == '}':
			toks = append(toks, token{tokRBrace, "}", line})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", line})
			i++
		case c == '-' && i+1 < n && src[i+1] == '>':
			toks = append(toks, token{tokArrow, "->", line})
			i += 2
		case c == '<' && i+1 < n && src[i+1] == '=':
			toks = append(toks, token{tokOp, "<=", line})
			i += 2
		case c == '>' && i+1 < n && src[i+1] == '=':
			toks = append(toks, token{tokOp, ">=", line})
			i += 2
		case c == '=':
			toks = append(toks, token{tokOp, "=", line})
			i++
		case isAtomChar(rune(c)):
			j := i
			for j < n && isAtomChar(rune(src[j])) {
				// Stop before "->" so "a->b" lexes as three tokens.
				if src[j] == '-' && j+1 < n && src[j+1] == '>' {
					break
				}
				j++
			}
			toks = append(toks, token{tokAtom, src[i:j], line})
			i = j
		default:
			return nil, fmt.Errorf("config: line %d: unexpected character %q", line, c)
		}
	}
	toks = append(toks, token{tokEOF, "", line})
	return toks, nil
}

func isAtomChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) ||
		strings.ContainsRune("./:_-", r)
}
