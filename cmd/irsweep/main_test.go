package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestListPrintsBenchmarks(t *testing.T) {
	code, out, _ := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	if !strings.Contains(out, "streamcluster") {
		t.Fatalf("-list output missing streamcluster:\n%s", out)
	}
}

func TestBadInputs(t *testing.T) {
	fg := "host:pcpus=4; vm:name=fg,kind=bench,bench=%s,mode=%s,vcpus=%d"
	cases := []struct {
		args []string
		want int
		msg  string // stderr must contain it, when set
	}{
		{[]string{"-nonsense"}, 2, ""},
		{[]string{"-inter", "1,x"}, 2, ""},
		{[]string{"-inter", "-3"}, 2, ""},
		{[]string{"-spec", fmt.Sprintf(fg, "streamcluster", "busy", 4)}, 2, "mode"},
		{[]string{"-cluster", "-hosts", "two"}, 2, ""},
		{[]string{"-cluster", "-hosts", "0"}, 2, ""},
		{[]string{"-cluster", "-hosts", "2,0"}, 2, ""},
		{[]string{"-spec", fmt.Sprintf(fg, "nosuchbench", "", 4)}, 2, "unknown benchmark"},
		{[]string{"-runs", "0"}, 2, ""},
		{[]string{"-spec", fmt.Sprintf(fg, "streamcluster", "", 0), "-inter", "0", "-runs", "1"}, 2, "vcpus > 0"},
		// Five hogs cannot be pinned on four pCPUs: every cell is
		// checked before any runs, and a malformed cell is bad input.
		{[]string{"-inter", "0,5", "-runs", "1"}, 2, "-inter 5: core: vm bg pins 5 vCPUs"},
	}
	for _, tc := range cases {
		code, _, errOut := runCmd(t, tc.args...)
		if code != tc.want || !strings.Contains(errOut, tc.msg) {
			t.Errorf("%v: exit = %d, want %d; stderr %q, want %q", tc.args, code, tc.want, errOut, tc.msg)
		}
	}
}

// A cell whose simulation fails prints ERR, names its error on stderr,
// and makes the sweep exit 1: here the horizon ends every run before
// the benchmark finishes.
func TestFailedCellExitsOne(t *testing.T) {
	code, out, errOut := runCmd(t, "-spec", "host:pcpus=4,horizon=1ms; vm:name=fg,kind=bench,bench=streamcluster,vcpus=4",
		"-inter", "1", "-runs", "1")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "ERR") {
		t.Fatalf("stdout has no ERR cell:\n%s", out)
	}
	if n := strings.Count(errOut, "irsweep: inter 1, "); n != 4 {
		t.Fatalf("stderr names %d failed cells, want one per strategy:\n%s", n, errOut)
	}
}

func TestParseIntList(t *testing.T) {
	if got, ok := parseIntList(" 2, 3 ,4"); !ok || len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("parseIntList = %v, %v", got, ok)
	}
	if _, ok := parseIntList("2,-1"); ok {
		t.Fatal("parseIntList accepted a negative entry")
	}
}

func TestClusterSweepDeterministic(t *testing.T) {
	code, out, errOut := runCmd(t, "-cluster", "-hosts", "3", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"hosts", "first-fit", "least-loaded", "ia+irs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep output missing %q:\n%s", want, out)
		}
	}
	code2, out2, _ := runCmd(t, "-cluster", "-hosts", "3", "-seed", "1", "-workers", "1")
	if code2 != 0 || out2 != out {
		t.Fatalf("serial sweep differs from parallel (exit %d)", code2)
	}
}

func TestClusterSweepZones(t *testing.T) {
	code, out, errOut := runCmd(t, "-cluster", "-hosts", "2", "-zones", "2", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "hosts/2z") {
		t.Fatalf("zoned sweep header missing hosts/2z:\n%s", out)
	}
	// A zoned run is a different topology, so its numbers must differ
	// from the flat run over the same total host count.
	_, flat, _ := runCmd(t, "-cluster", "-hosts", "4", "-seed", "1")
	flatRow := flat[strings.LastIndex(flat, "\n4"):]
	zonedRow := out[strings.LastIndex(out, "\n2"):]
	if strings.TrimSpace(flatRow[2:]) == strings.TrimSpace(zonedRow[2:]) {
		t.Fatal("2-zone sweep produced the same cells as the flat 4-host sweep")
	}
	if code, _, _ := runCmd(t, "-cluster", "-zones", "0"); code != 2 {
		t.Fatal("-zones 0 accepted")
	}
}
