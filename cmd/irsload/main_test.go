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
	cases := [][]string{
		{"-nonsense"},
		{}, // no spec source
		{"-variant", "x", "-spec", "topo:zones=1,hosts=1"}, // two sources
		{"-variant", "nosuchrig"},
		{"-spec", "topo:zones=0"}, // invalid spec
		{"-file", "/nonexistent.load"},
	}
	for _, args := range cases {
		if code, _, _ := runCmd(t, args...); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
	}
}

func TestWhyBadInputs(t *testing.T) {
	cases := [][]string{
		{"-variant", "2z8h-outage", "-why", "bogus"},                          // unknown decision kind
		{"-variant", "2z8h-outage", "-why", "ctl", "-q", "kind=place kind=x"}, // malformed query
	}
	// A decision flag without -why is bad input, even at its default.
	for _, f := range []string{"-q=kind=place", "-limit=20", "-top=3", "-trail=cordon", "-json=-", "-perfetto=x.trace"} {
		cases = append(cases, []string{"-variant", "2z8h-outage", f})
	}
	for _, args := range cases {
		if code, _, _ := runCmd(t, args...); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
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
	// header names the source, so compare from the numbers on).
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

// outageWhy runs the acceptance rig with the control-plane decision log
// attached, plus any extra flags.
func outageWhy(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	return runCmd(t, append([]string{"-variant", "2z8h-outage", "-why", "ctl"}, args...)...)
}

// TestOutageWhyGolden pins the decision section: the report exactly as
// TestOutageVariantGolden pins it, then the decision header and trail.
// Regenerate with: go test ./cmd/irsload -run Golden -update
func TestOutageWhyGolden(t *testing.T) {
	code, out, errOut := outageWhy(t)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	checkGolden(t, "testdata/2z8h-outage-why.golden", out)
}

// TestSpecFileMatchesVariant runs the acceptance rig from a spec file
// with the decision log attached: every line after the header, which
// names the source, must match the built-in variant's golden.
func TestSpecFileMatchesVariant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outage.load")
	if err := os.WriteFile(path, []byte(experiments.ScaleOutageSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCmd(t, "-file", path, "-why", "ctl")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	want, err := os.ReadFile("testdata/2z8h-outage-why.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, gotBody, _ := strings.Cut(out, "\n")
	_, wantBody, _ := strings.Cut(string(want), "\n")
	if gotBody != wantBody {
		t.Fatalf("-file run differs from the variant:\n%s", out)
	}
}

// TestTrailGatePassesOnOutageTrail is the CI acceptance path: the
// outage rig's decision trail is exactly the elasticity story.
func TestTrailGatePassesOnOutageTrail(t *testing.T) {
	code, out, errOut := outageWhy(t,
		"-trail", "cordon,failover,scale-up,scale-up,drain,drain")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"trail cordon", "trail failover", "expect gate: trail", "— ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTrailGateFailsOnWrongTrail(t *testing.T) {
	code, _, errOut := outageWhy(t, "-trail", "cordon,drain")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errOut)
	}
	if !strings.Contains(errOut, "does not match -trail") {
		t.Fatalf("stderr missing trail mismatch: %s", errOut)
	}
}

// TestQueryAndTopAreDeterministic pins the whole pipeline: the query,
// closest calls and trail must be byte-identical across two runs.
func TestQueryAndTopAreDeterministic(t *testing.T) {
	args := []string{"-q", "kind=autoscale", "-top", "3"}
	_, first, _ := outageWhy(t, args...)
	_, second, _ := outageWhy(t, args...)
	if first != second {
		t.Fatalf("output differs between two runs:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "query \"kind=autoscale\": 4 of") {
		t.Fatalf("query did not match the 4 autoscale decisions:\n%s", first)
	}
}

func TestJSONExportIsValid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.json")
	code, _, errOut := outageWhy(t, "-q", "kind=cordon,uncordon,autoscale", "-json", path)
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
	path := filepath.Join(t.TempDir(), "decisions.trace")
	code, _, errOut := outageWhy(t, "-q", "kind=place", "-perfetto", path)
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

// The watchdog tests run the watch table's rigs with -alerts: the bully
// rig must page and rank the bully first, the quiet rig must stay
// silent.

func TestAlertsBadInputs(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"unknown variant", []string{"-variant", "nope", "-alerts"}, 2},
		{"bad flag", []string{"-variant", "bully", "-alerts", "-frobnicate"}, 2},
		{"bad rules", []string{"-spec", "alert:name=page,budget=2", "-alerts"}, 2},
		{"empty rules", []string{"-variant", "1z4h", "-alerts"}, 2},
		{"dump without alerts", []string{"-variant", "bully", "-dump", t.TempDir() + "/x"}, 2},
		{"expect-top without alerts", []string{"-variant", "bully", "-expect-top", "bully"}, 2},
		{"dump without incident", []string{"-variant", "quiet", "-alerts", "-dump", t.TempDir() + "/x"}, 1},
		{"expect-top without alert", []string{"-variant", "quiet", "-alerts", "-expect-top", "bully"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code, _, errOut := runCmd(t, tc.args...); code != tc.code {
				t.Fatalf("exit = %d, want %d (stderr: %s)", code, tc.code, errOut)
			}
		})
	}
}

func TestBullyScenarioAlertsAndDumps(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "incident")
	code, text, errOut := runCmd(t, "-variant", "bully", "-alerts", "-expect-top", "bully", "-dump", prefix)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(text, "ALERT page:") {
		t.Fatalf("no live alert line in output:\n%s", text)
	}
	if !strings.Contains(text, "#1 srv0<-bully") {
		t.Fatalf("bully not top-ranked in output:\n%s", text)
	}

	raw, err := os.ReadFile(prefix + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var inc struct {
		Reason   string `json:"reason"`
		Rankings []struct {
			Aggressor string `json:"aggressor"`
		} `json:"rankings"`
		Series []json.RawMessage `json:"series"`
		Spans  []json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal(raw, &inc); err != nil {
		t.Fatalf("incident bundle is not valid JSON: %v", err)
	}
	if inc.Reason != "slo-alert" || len(inc.Rankings) == 0 || inc.Rankings[0].Aggressor != "bully" {
		t.Fatalf("bundle reason=%q rankings=%+v", inc.Reason, inc.Rankings)
	}
	if len(inc.Series) == 0 || len(inc.Spans) == 0 {
		t.Fatalf("bundle missing telemetry: %d series, %d spans", len(inc.Series), len(inc.Spans))
	}

	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	rawTr, err := os.ReadFile(prefix + ".trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawTr, &tr); err != nil {
		t.Fatalf("trace half is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace half has no events")
	}
}

func TestQuietScenarioStaysSilent(t *testing.T) {
	code, out, errOut := runCmd(t, "-variant", "quiet", "-alerts")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if strings.Contains(out, "ALERT") || !strings.Contains(out, "== alerts: 0 fired, 0 incidents ==") {
		t.Fatalf("quiet scenario alerted:\n%s", out)
	}
}

func TestOutputDeterministic(t *testing.T) {
	render := func() string {
		code, out, errOut := runCmd(t, "-variant", "bully", "-alerts")
		if code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errOut)
		}
		return out
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("same seed diverged:\n%s\n---\n%s", a, b)
	}
}
