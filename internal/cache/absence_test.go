//go:build invariants

package cache

import (
	"strings"
	"testing"
)

// TestFillMissedAbsenceViolation: in the invariants build, a FillMissed
// call for a line that is already resident breaks the caller's absence
// proof and must surface through CheckStructure (and so through the
// simulator's structural invariant checks).
func TestFillMissedAbsenceViolation(t *testing.T) {
	c := smallCache(t)
	a := addrFor(2, 3)
	c.Fill(a, Data, false)
	c.FillMissed(addrFor(2, 4), Data, false) // a true absence proof
	if d := c.CheckStructure(); d != "" {
		t.Fatalf("violation before any bad call: %s", d)
	}
	c.FillMissed(a, Translation, true)
	if d := c.CheckStructure(); !strings.Contains(d, "FillMissed") {
		t.Fatalf("CheckStructure = %q, want the FillMissed absence violation", d)
	}
}
