//go:build invariants

package cache

// checkAbsence: the `invariants` build verifies every FillMissed caller's
// absence proof (one extra set scan per fill).
const checkAbsence = true
