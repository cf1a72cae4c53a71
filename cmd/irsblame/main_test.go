package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// rig is the bully rig with a request stream of duration d.
func rig(d sim.Time) string {
	return experiments.BlameRig(d, experiments.DefaultBlameArrival).String()
}

func TestBadInputs(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"unknown strategy", []string{"-strategy", "nope"}, 2},
		{"empty strategy list", []string{"-strategy", ""}, 2},
		{"bad flag", []string{"-frobnicate"}, 2},
		{"fg not a server", []string{"-spec", "host:pcpus=4; vm:name=fg,kind=hog,vcpus=1"}, 2},
		{"unwritable perfetto path", []string{"-spec", rig(50 * sim.Millisecond), "-strategy", "vanilla", "-perfetto", "/nonexistent-dir/x.json"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if got := run(tc.args, &out, &errb); got != tc.code {
				t.Fatalf("exit = %d, want %d (stderr: %s)", got, tc.code, errb.String())
			}
		})
	}
}

func TestBlameOutputDeterministic(t *testing.T) {
	args := []string{"-spec", rig(300 * sim.Millisecond), "-top", "2", "-strategy", "vanilla,irs"}
	render := func() string {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errb.String())
		}
		return out.String()
	}
	first := render()
	for _, want := range []string{
		"== vanilla:", "== irs:",
		"conservation: 0 violations, max error 0s",
		"p99", "slowest 2 requests:",
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("output missing %q:\n%s", want, first)
		}
	}
	if second := render(); first != second {
		t.Fatal("two identical invocations produced different bytes")
	}
}

func TestPerfettoExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	var out, errb bytes.Buffer
	args := []string{"-spec", rig(200 * sim.Millisecond), "-top", "2", "-strategy", "vanilla,irs", "-perfetto", path}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "wrote perfetto span trace") {
		t.Fatal("no perfetto confirmation line")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("perfetto file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("perfetto file has no events")
	}
	// Both strategies must appear as named processes.
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e["name"] == "process_name" {
			if args, ok := e["args"].(map[string]any); ok {
				names[args["name"].(string)] = true
			}
		}
	}
	if !names["vanilla"] || !names["irs"] {
		t.Fatalf("process names = %v, want vanilla and irs", names)
	}
}

func TestCSVExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blame.csv")
	var out, errb bytes.Buffer
	args := []string{"-spec", rig(200 * sim.Millisecond), "-top", "0", "-strategy", "vanilla,irs", "-csv", path}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "wrote blame breakdown CSV") {
		t.Fatal("no CSV confirmation line")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if lines[0] != "strategy,band,requests,band_wall_ns,category,time_ns,share" {
		t.Fatalf("bad header: %q", lines[0])
	}
	if len(lines) < 8 {
		t.Fatalf("only %d CSV lines, want both strategies' bands", len(lines))
	}
	both := map[string]bool{}
	for _, ln := range lines[1:] {
		fields := strings.Split(ln, ",")
		if len(fields) != 7 {
			t.Fatalf("row has %d fields: %q", len(fields), ln)
		}
		both[fields[0]] = true
	}
	if !both["vanilla"] || !both["irs"] {
		t.Fatalf("strategies in CSV = %v, want vanilla and irs", both)
	}
}

func TestCSVUnwritablePath(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-spec", rig(50 * sim.Millisecond), "-strategy", "vanilla", "-csv", "/nonexistent-dir/x.csv"}
	if code := run(args, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errb.String())
	}
}

// TestStdoutExportsEndWithPayload pins that "-" exports are the last
// bytes on stdout: the file confirmations must not trail the payload.
func TestStdoutExportsEndWithPayload(t *testing.T) {
	for flag, tail := range map[string]string{"-csv": ",", "-perfetto": "}"} {
		var out, errb bytes.Buffer
		args := []string{"-strategy", "irs", "-spec", rig(100 * sim.Millisecond), "-top", "0", flag, "-"}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%s -: exit = %d, stderr: %s", flag, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if last := lines[len(lines)-1]; strings.Contains(last, "wrote ") || !strings.Contains(last, tail) {
			t.Errorf("%s -: stdout ends with %q, want the payload's last line", flag, last)
		}
	}
}
