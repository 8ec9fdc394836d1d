package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"testing"

	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// checkKey is the key scheme composeKey replaced, kept as the oracle the key
// soundness tests compare against: the first 128 bits of a SHA-256 over the
// NUL-separated rendered parts, hex-encoded.
func checkKey(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// OldKey recomputes the key the rendered-text scheme gave a generated check,
// from the same obligation content, with the location left out as the
// composed keys leave it out, and an originate check's routes rendered with
// the ghost values they take on its edge. Exported to the package's
// external tests.
func OldKey(c Check) string {
	ob := c.ob
	var inner string
	switch {
	case ob.filter != nil:
		f := ob.filter
		kind := ob.Kind
		if ob.relabeledFor != nil { // the sub-check's own kind was rewritten
			kind = ExportCheck
			if f.importSide {
				kind = ImportCheck
			}
		}
		ghostStr := ""
		for _, a := range f.ghostActs {
			ghostStr += a.String() + ";"
		}
		inner = checkKey(kind.String(), f.m.String(), ghostStr,
			f.pre.pred.String(), f.post.pred.String(), fmt.Sprint(f.mustAccept))
	case ob.implication != nil:
		inner = checkKey("implication", ob.implication.pre.pred.String(), ob.implication.post.pred.String())
	case ob.originate != nil:
		o := ob.originate
		routeStr, ghostStr := "", ""
		for _, r := range o.routes {
			routeStr += originatedWithGhosts(r, o.e, o.ghosts).String() + ";"
		}
		for _, g := range o.ghosts {
			ghostStr += g.Name + ";"
		}
		inner = checkKey("originate", routeStr, ghostStr, o.inv.pred.String())
	}
	if ob.relabeledFor != nil {
		return checkKey("relabel", fmt.Sprint(int(ob.Kind)), inner)
	}
	return inner
}

// fnv64aKey reproduces the pre-SHA-256 key scheme, kept here so the
// regression below keeps proving its inputs really collide under it.
func fnv64aKey(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// TestCheckKeyCollisionRegression pins the reason checkKey moved from
// 64-bit FNV-1a to truncated SHA-256: the strings below are a published
// FNV-1a-64 collision pair, so under the old scheme two distinct checks
// whose semantic descriptions contained them would silently share one
// cached verdict.
func TestCheckKeyCollisionRegression(t *testing.T) {
	const a, b = "8yn0iYCKYHlIj4-BwPqk", "GReLUrM4wMqfg9yzV3KQ"
	if fnv64aKey(a) != fnv64aKey(b) {
		t.Fatalf("test vectors no longer collide under FNV-1a-64: %x vs %x", fnv64aKey(a), fnv64aKey(b))
	}
	if checkKey(a) == checkKey(b) {
		t.Fatalf("checkKey still collides on the FNV-1a-64 pair: %s", checkKey(a))
	}

	// Second published pair, hashed as multi-part keys.
	const c, d = "gMPflVXtwGDXbIhP73TX", "LtHf1prlU1bCeYZEdqWf"
	if fnv64aKey("import", c) != fnv64aKey("import", d) {
		// Same-length prefixes preserve FNV collisions (the hash is a
		// running fold), so this should still collide.
		t.Logf("prefixed vectors diverged under FNV; continuing")
	}
	if checkKey("import", c) == checkKey("import", d) {
		t.Fatal("checkKey collides on prefixed FNV-1a-64 pair")
	}
}

func TestCheckKeyShapeAndSeparation(t *testing.T) {
	k := checkKey("import", "A -> B", "route-map m")
	if len(k) != 32 {
		t.Fatalf("key should be 32 hex chars (128-bit truncated SHA-256), got %d: %q", len(k), k)
	}
	if k != checkKey("import", "A -> B", "route-map m") {
		t.Fatal("checkKey must be deterministic")
	}
	// Part boundaries matter: "ab"+"c" must not equal "a"+"bc".
	if checkKey("ab", "c") == checkKey("a", "bc") {
		t.Fatal("checkKey must separate parts")
	}
	// The composed keys keep the shape and the order of their fingerprints.
	fa, fb := spec.Sum("a"), spec.Sum("b")
	k = composeKey(ImportCheck, false, fa, fb)
	if len(k) != 32 || k == composeKey(ImportCheck, false, fb, fa) {
		t.Fatalf("composeKey shape or separation: %q", k)
	}
	// They leave the location out: one filter content at two sessions is
	// one key.
	pre, post := &predicate{pred: spec.True()}, &predicate{pred: spec.False()}
	at := func(e topology.Edge) string {
		return filterCheck(ImportCheck, e, filterObligation{importSide: true}, fa, ghostSet{}, pre, post).Key()
	}
	if at(topology.Edge{From: "ab", To: "c"}) != at(topology.Edge{From: "a", To: "bc"}) {
		t.Fatal("composeKey reads the location")
	}
}
