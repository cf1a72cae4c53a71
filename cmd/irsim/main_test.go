package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the CLI golden files")

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestListIncludesEveryExperiment(t *testing.T) {
	code, out, _ := runCmd(t, "list")
	if code != 0 {
		t.Fatalf("list exited %d", code)
	}
	for _, id := range []string{"fig1a", "claims", "chaos", "cluster"} {
		if !strings.Contains(out, id+"\n") {
			t.Errorf("list output missing %q", id)
		}
	}
}

func TestNoArgsIsUsageError(t *testing.T) {
	code, _, errOut := runCmd(t)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, "usage:") {
		t.Fatalf("no usage message on stderr: %q", errOut)
	}
}

func TestBadFlagIsUsageError(t *testing.T) {
	if code, _, _ := runCmd(t, "-nonsense"); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	code, _, errOut := runCmd(t, "fig99")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut, "unknown experiment") {
		t.Fatalf("stderr = %q", errOut)
	}
}

func TestClusterExperimentDeterministic(t *testing.T) {
	// The headline property: same seed ⇒ byte-identical stdout, across
	// the worker pool and serially.
	code, out, errOut := runCmd(t, "-runs", "1", "-seed", "1", "cluster")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "first-fit") || !strings.Contains(out, "ia+irs") {
		t.Fatalf("cluster table missing variants:\n%s", out)
	}
	code2, out2, _ := runCmd(t, "-workers", "1", "-runs", "1", "-seed", "1", "cluster")
	if code2 != 0 || out2 != out {
		t.Fatalf("serial run differs from parallel (exit %d)", code2)
	}
}

func TestAttackGatePassesWithDefenses(t *testing.T) {
	code, out, errOut := runCmd(t, "-attack", "tick-evade", "-expect-overshoot", "1.05")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "vanilla") || !strings.Contains(out, "both") {
		t.Fatalf("attack table missing defense rows:\n%s", out)
	}
	if !strings.Contains(errOut, "attack gate ok") {
		t.Fatalf("no gate verdict on stderr: %q", errOut)
	}
}

func TestAttackGateFailsOnImpossibleCap(t *testing.T) {
	// No defense can hold an attacker below 1% of fair share; the gate
	// must trip.
	code, _, errOut := runCmd(t, "-attack", "tick-evade", "-expect-overshoot", "0.01")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut, "attack gate FAILED") {
		t.Fatalf("stderr = %q", errOut)
	}
}

func TestAttackRejectsBadSpec(t *testing.T) {
	for _, args := range [][]string{
		{"-attack", "frobnicate"},
		{"-attack", "none"},
		{"-attack", "tick-evade", "fig1a"},
	} {
		if code, _, _ := runCmd(t, args...); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
	}
}

// TestAttackSpecListRejectsBadSpecs checks that a ';'-separated spec
// list is refused whole when any spec is bad or every spec is zero.
func TestAttackSpecListRejectsBadSpecs(t *testing.T) {
	for _, list := range []string{"tick-evade;frobnicate", "frobnicate;tick-evade", "none;off"} {
		if code, out, _ := runCmd(t, "-attack", list); code != 2 || out != "" {
			t.Errorf("%q: exit = %d, want 2 with no output; stdout:\n%s", list, code, out)
		}
	}
}

// TestAttackSpecListMatrix runs two specs through the one attack path:
// every spec × defense row must reappear exactly as the golden sweep
// pinned it (only the title line names the spec list), the same seed
// must give the same bytes serially and across the pool, and the gate
// must judge each spec's fully-defended row.
func TestAttackSpecListMatrix(t *testing.T) {
	const list = "tick-evade;boost-game,run=2ms"
	code, out, errOut := runCmd(t, "-attack", list, "-seed", "1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	want, err := os.ReadFile("testdata/attack-sweep.golden")
	if err != nil {
		t.Fatal(err)
	}
	title, rows, _ := strings.Cut(out, "\n")
	_, wantRows, _ := strings.Cut(string(want), "\n")
	if title != `== attack: attacker "tick-evade;boost-game,run=2ms" vs accounting defenses ==` {
		t.Errorf("title = %q", title)
	}
	if rows != wantRows+"\n" {
		t.Fatalf("rows differ from the pinned sweep:\n%s", out)
	}
	code2, out2, _ := runCmd(t, "-attack", list, "-seed", "1", "-workers", "1")
	if code2 != 0 || out2 != out {
		t.Fatalf("serial attack matrix differs from parallel (exit %d)", code2)
	}
	code, _, errOut = runCmd(t, "-attack", list, "-expect-overshoot", "1.05")
	if code != 0 || strings.Count(errOut, "attack gate ok") != 2 {
		t.Fatalf("gate did not pass both specs (exit %d): %s", code, errOut)
	}
}

// checkGolden compares got against path, or rewrites the file under
// -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestAttackGateGolden pins the CI gate's table byte for byte.
// Regenerate with: go test ./cmd/irsim -run Golden -update
func TestAttackGateGolden(t *testing.T) {
	code, out, errOut := runCmd(t, "-attack", "tick-evade", "-expect-overshoot", "1.05")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	checkGolden(t, "testdata/attack.golden", out)
}
