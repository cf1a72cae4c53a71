package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// rigWith is the default rig with its benchmark and hog count replaced.
func rigWith(bench string, hogs int) string {
	return fmt.Sprintf("host:pcpus=4; vm:name=fg,kind=bench,bench=%s,vcpus=4; vm:name=bg,kind=hog,vcpus=%d", bench, hogs)
}

func TestBadInputs(t *testing.T) {
	cases := []struct {
		args []string
		want int
		msg  string // stderr must contain it, when set
	}{
		{[]string{"-nonsense"}, 2, ""},
		{[]string{"-spec", rigWith("streamcluster", 1) + "; faults:bogus=1"}, 2, `unknown field "bogus"`},
		{[]string{"-strategy", "fifo"}, 2, ""},
		{[]string{"-strategy", ""}, 2, ""},
		{[]string{"-spec", rigWith("nosuchbench", 1)}, 2, "unknown benchmark"},
		{[]string{"-spec", "host:pcpus=4; vm:name=bg,kind=hog,vcpus=1"}, 2, "needs a VM fg"},
		// Six hogs cannot be pinned on four pCPUs: a malformed rig, not
		// a failed run.
		{[]string{"-spec", rigWith("streamcluster", 6)}, 2, "outside the host's 4 pCPUs"},
	}
	for _, tc := range cases {
		code, _, errOut := runCmd(t, tc.args...)
		if code != tc.want || !strings.Contains(errOut, tc.msg) {
			t.Errorf("%v: exit = %d, want %d; stderr %q, want %q", tc.args, code, tc.want, errOut, tc.msg)
		}
	}
}

// TestTimelineBadInputs checks that -timeline rejects bad flags,
// strategies, event kinds and benchmarks as usage errors, and writes
// no file for them.
func TestTimelineBadInputs(t *testing.T) {
	for _, args := range [][]string{
		{"-nonsense"},
		{"-strategy", "fifo"},
		{"-kinds", "bogus"},
		{"-spec", rigWith("nosuchbench", 1)},
	} {
		path := filepath.Join(t.TempDir(), "t.txt")
		args = append(args, "-timeline", path)
		if code, _, _ := runCmd(t, args...); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%v: timeline file written for a usage error", args)
		}
	}
}

func TestInsertSuffix(t *testing.T) {
	if got := insertSuffix("out.csv", "irs"); got != "out.irs.csv" {
		t.Fatalf("insertSuffix = %q", got)
	}
	if got := insertSuffix("trace", "ple"); got != "trace.ple" {
		t.Fatalf("insertSuffix = %q", got)
	}
}

func TestReportRunsAndIsDeterministic(t *testing.T) {
	prom := filepath.Join(t.TempDir(), "out.prom")
	args := []string{"-strategy", "irs", "-seed", "1", "-prom", prom}
	code, out, errOut := runCmd(t, args...)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"irsreport: bench=streamcluster", "steal per vCPU", "SA sent/ack/exp", "telemetry"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(errOut, "wrote prometheus") {
		t.Fatalf("stderr missing export confirmation: %q", errOut)
	}
	code2, out2, _ := runCmd(t, args...)
	if code2 != 0 || out2 != out {
		t.Fatalf("rerun differs (exit %d)", code2)
	}
}

// TestTimelineMatchesGolden pins the -timeline window byte for byte:
// the SA and context-switch lines of IRS's reaction to a hog at 1s,
// then the shown/dropped/totals line. The same seed must reproduce
// the file exactly, and the drop counter must be present so a reader
// can tell a complete window from a truncated one.
func TestTimelineMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/timeline.golden")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		path := filepath.Join(t.TempDir(), "t.txt")
		code, _, errOut := runCmd(t, "-strategy", "irs", "-seed", "1",
			"-at", "1s", "-window", "50ms", "-kinds", "sa,switch", "-timeline", path)
		if code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errOut)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("run %d: timeline differs from golden:\n%s", i, got)
		}
	}
	if !strings.Contains(string(want), "dropped at capacity") {
		t.Fatal("timeline does not surface the dropped-event count")
	}
}

func TestTimelineToStdout(t *testing.T) {
	code, out, errOut := runCmd(t, "-strategy", "irs", "-kinds", "migrate", "-timeline", "-")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	_, timeline, ok := strings.Cut(out, "--- timeline (irs) ---\n")
	if !ok || !strings.Contains(timeline, "events shown") || strings.Contains(timeline, " sa ") {
		t.Fatalf("timeline section missing or unfiltered:\n%s", out)
	}
}
