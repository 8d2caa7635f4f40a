//go:build !invariants

package cache

// checkAbsence arms FillMissed's absence check in the `invariants` build
// only; the default build trusts the callers' proofs at no cost.
const checkAbsence = false
