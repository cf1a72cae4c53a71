package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
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
		{[]string{"-variant", "nosuchrig"}, 2},
		{[]string{"-spec", "topo:zones=0"}, 2}, // invalid spec is bad input
		{[]string{"-file", "/nonexistent.load"}, 2},
		{[]string{"-variant", "1z4h", "-spec", "topo:zones=1,hosts=1"}, 2}, // two sources
		{[]string{"-kinds", "bogus"}, 2},                                   // unknown decision kind
		{[]string{"-q", "kind=place kind=x"}, 2},                           // malformed query
	}
	for _, tc := range cases {
		if code, _, _ := runCmd(t, tc.args...); code != tc.want {
			t.Errorf("%v: exit = %d, want %d", tc.args, code, tc.want)
		}
	}
}

// TestExpectGatePassesOnOutageTrail is the CI acceptance path: the
// outage rig's decision trail is exactly the elasticity story.
func TestExpectGatePassesOnOutageTrail(t *testing.T) {
	code, out, errOut := runCmd(t, "-shards", "1",
		"-expect", "cordon,failover,scale-up,scale-up,drain,drain")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"trail cordon", "trail failover", "expect gate", "— ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestExpectGateFailsOnWrongTrail(t *testing.T) {
	code, _, errOut := runCmd(t, "-shards", "1", "-expect", "cordon,drain")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errOut)
	}
	if !strings.Contains(errOut, "does not match -expect") {
		t.Fatalf("stderr missing trail mismatch: %s", errOut)
	}
}

// TestQueryAndTopAreDeterministic pins the whole pipeline: two
// identical invocations — query, closest calls, trail — must emit
// byte-identical output regardless of the engine pool width.
func TestQueryAndTopAreDeterministic(t *testing.T) {
	args := []string{"-q", "kind=autoscale", "-top", "3"}
	_, serial, _ := runCmd(t, append([]string{"-shards", "1"}, args...)...)
	_, pooled, _ := runCmd(t, append([]string{"-shards", "0"}, args...)...)
	if serial != pooled {
		t.Fatalf("output differs between serial and pooled runs:\n--- serial ---\n%s--- pooled ---\n%s", serial, pooled)
	}
	if !strings.Contains(serial, "query \"kind=autoscale\": 4 of") {
		t.Fatalf("query did not match the 4 autoscale decisions:\n%s", serial)
	}
}

func TestJSONExportIsValid(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "decisions.json")
	code, _, errOut := runCmd(t, "-shards", "1", "-q", "kind=cordon,uncordon,autoscale", "-json", path)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bundle struct {
		Count   int `json:"count"`
		Records []struct {
			Kind string `json:"kind"`
		} `json:"records"`
	}
	if err := json.Unmarshal(b, &bundle); err != nil {
		t.Fatalf("exported bundle is not valid JSON: %v", err)
	}
	// 1 cordon + 1 uncordon + 4 autoscale actions.
	if bundle.Count != 6 || len(bundle.Records) != 6 {
		t.Fatalf("bundle has %d records, want 6", bundle.Count)
	}
}

func TestPerfettoExportIsValid(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "decisions.trace")
	code, _, errOut := runCmd(t, "-shards", "1", "-q", "kind=place", "-perfetto", path)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	var instants int
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "i" {
			instants++
		}
	}
	if instants != 10 {
		t.Fatalf("%d instant events, want 10 (one per placement)", instants)
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

// TestSpecFileMatchesVariant runs the default rig from a spec file:
// every line after the header, which names the source, must match the
// golden of the built-in variant.
func TestSpecFileMatchesVariant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outage.load")
	if err := os.WriteFile(path, []byte(experiments.ScaleOutageSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCmd(t, "-file", path)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	want, err := os.ReadFile("testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, gotBody, _ := strings.Cut(out, "\n")
	_, wantBody, _ := strings.Cut(string(want), "\n")
	if gotBody != wantBody {
		t.Fatalf("-file run differs from the variant:\n%s", out)
	}
}

// TestDefaultTrailGolden pins the default invocation's output byte for
// byte. Regenerate with: go test ./cmd/irswhy -run Golden -update
func TestDefaultTrailGolden(t *testing.T) {
	code, out, errOut := runCmd(t)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	checkGolden(t, "testdata/default.golden", out)
}
