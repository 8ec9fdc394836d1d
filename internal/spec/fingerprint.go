package spec

import "crypto/sha256"

// Fingerprint is a 128-bit content fingerprint: the first half of the
// SHA-256 of a canonical rendering. Check keys (core.Check.Key) are composed
// from the fingerprints of a check's route map, predicates and ghost
// actions, so the text is rendered and hashed once per owner — the built
// network, the invariant map, the problem — instead of once per check. A key
// gates the sharing of a cached verdict, so the hash stays cryptographic: a
// collision would silently hand one check's verdict to another.
type Fingerprint [16]byte

// Sum fingerprints one canonical rendering. A predicate's rendering spells
// out every node of the closed union; Named is the one exception, by
// contract: its name stands for the subtree it wraps.
func Sum(rendering string) Fingerprint {
	sum := sha256.Sum256([]byte(rendering))
	return Fingerprint(sum[:16])
}
