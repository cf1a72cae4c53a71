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

func TestListPrintsVariants(t *testing.T) {
	code, out, _ := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, want := range []string{"1z4h", "2z4h-diurnal", "2z8h-outage"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestBadInputs(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-nonsense"}, 2},
		{[]string{}, 2}, // no spec source
		{[]string{"-variant", "x", "-spec", "topo:zones=1,hosts=1"}, 2}, // two sources
		{[]string{"-variant", "nosuchrig"}, 2},
		{[]string{"-spec", "topo:zones=0"}, 2}, // invalid spec
		{[]string{"-file", "/nonexistent.load"}, 2},
	}
	for _, tc := range cases {
		if code, _, _ := runCmd(t, tc.args...); code != tc.want {
			t.Errorf("%v: exit = %d, want %d", tc.args, code, tc.want)
		}
	}
}

func TestOutageVariantPassesExpectGate(t *testing.T) {
	// The acceptance rig end to end: outage mid-ramp, failover, the
	// autoscaler restoring the replica count, and a recovered SLO rate
	// below the 1% CI gate.
	code, out, errOut := runCmd(t, "-variant", "2z8h-outage", "-expect", "1.0")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"failover", "recovered", "expect gate", "— ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "scale +0/-0") {
		t.Fatalf("autoscaler never acted:\n%s", out)
	}
}

func TestExpectGateFailsWhenUnreachable(t *testing.T) {
	// A 0% gate cannot be met strictly (rate must be *below* it), so
	// this pins the failure path.
	code, _, errOut := runCmd(t, "-variant", "2z8h-outage", "-expect", "0")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errOut)
	}
	if !strings.Contains(errOut, "not below the -expect gate") {
		t.Fatalf("stderr missing gate message: %s", errOut)
	}
}

func TestExpectRequiresOutagePhases(t *testing.T) {
	code, _, errOut := runCmd(t, "-variant", "1z4h", "-expect", "1.0")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut, "no outage") {
		t.Fatalf("stderr missing phase message: %s", errOut)
	}
}

func TestSpecFileAndDeterminism(t *testing.T) {
	spec := "topo:zones=2,hosts=2,pcpus=4; load:arrival=2ms,duration=4s,drain=1s; " +
		"tenants:servers=1,server-vcpus=2,ants=1,ant-vcpus=2,spacing=300ms"
	path := filepath.Join(t.TempDir(), "rig.load")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCmd(t, "-file", path, "-v")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "spec: topo:zones=2") {
		t.Fatalf("-v did not echo the parsed spec:\n%s", out)
	}
	// Same spec inline, same seed: identical measurements (the report
	// header names the source, so compare from the numbers on), serial
	// or sharded.
	results := func(s string) string {
		if i := strings.Index(s, "served"); i >= 0 {
			return s[i:]
		}
		return s
	}
	_, inline, _ := runCmd(t, "-spec", spec, "-v")
	if results(inline) != results(out) {
		t.Fatalf("inline spec differs from file spec:\n%s\n%s", inline, out)
	}
	_, serial, _ := runCmd(t, "-spec", spec, "-v", "-shards", "1")
	if results(serial) != results(out) {
		t.Fatalf("serial run differs from auto-sharded:\n%s\n%s", serial, out)
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

// TestOutageVariantGolden pins the acceptance rig's report byte for
// byte. Regenerate with: go test ./cmd/irsload -run Golden -update
func TestOutageVariantGolden(t *testing.T) {
	code, out, errOut := runCmd(t, "-variant", "2z8h-outage")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	checkGolden(t, "testdata/2z8h-outage.golden", out)
}
