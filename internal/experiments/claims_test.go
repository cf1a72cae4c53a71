package experiments

import "testing"

// TestPaperClaims re-checks every headline claim of the paper on the
// simulator. This is the repository's conformance suite: if a scheduler
// change breaks the shape of a paper result, a claim fails here.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("claims take a few seconds")
	}
	h := newHarness(Options{Runs: 1, Seed: 1})
	for _, c := range Claims() {
		t.Run(c.ID, func(t *testing.T) {
			got, ok := c.Check(h)
			if !ok {
				t.Errorf("%s (%s): %s\n  measured: %s", c.ID, c.Section, c.Statement, got)
			} else {
				t.Logf("%s: %s", c.ID, got)
			}
		})
	}
}

func TestClaimsHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Claims() {
		if c.ID == "" || c.Statement == "" || c.Section == "" || c.Check == nil {
			t.Fatalf("incomplete claim %+v", c.ID)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate claim id %s", c.ID)
		}
		seen[c.ID] = true
	}
	if len(seen) < 15 {
		t.Fatalf("only %d claims; expected the full suite", len(seen))
	}
}
