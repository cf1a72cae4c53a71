package cli

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

func parse(t *testing.T, args ...string) *LoadSpec {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	l := AddLoadSpec(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestResolveSources(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rig.load")
	if err := os.WriteFile(path, []byte(experiments.ScaleOutageSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args     []string
		wantName string // "" = error
	}{
		{nil, ""},
		{[]string{"-variant", "1z4h"}, "1z4h"},
		{[]string{"-variant", "nosuchrig"}, ""},
		{[]string{"-variant", "1z4h", "-spec", "topo:zones=1,hosts=1"}, ""},
		{[]string{"-spec", "topo:zones=0"}, ""},
		{[]string{"-file", "/nonexistent.load"}, ""},
		{[]string{"-spec", "topo:zones=1,hosts=2"}, "spec"},
		{[]string{"-file", path}, path},
		{[]string{"-spec", "topo:zones=1,hosts=2", "-file", path}, ""},
	}
	for _, tc := range cases {
		name, _, _, err := parse(t, tc.args...).Resolve()
		if tc.wantName == "" && err == nil || tc.wantName != "" && (err != nil || name != tc.wantName) {
			t.Errorf("%v: name %q, err %v; want name %q", tc.args, name, err, tc.wantName)
		}
	}
}

func TestResolveAppliesRunFlags(t *testing.T) {
	_, spec, cfg, err := parse(t, "-variant", "2z8h-outage",
		"-seed", "7").Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Zones != 2 || cfg.Seed != 7 {
		t.Fatalf("zones %d seed %d", spec.Zones, cfg.Seed)
	}
}

func TestPrintVariants(t *testing.T) {
	var b bytes.Buffer
	PrintVariants(&b)
	if !strings.Contains(b.String(), "2z8h-outage") {
		t.Fatalf("variants = %q", b.String())
	}
}

func TestProfileWritesBothFiles(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p := AddProfile(fs)
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	stop, err := p.Start(&stderr)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", path, err)
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr = %q", stderr.String())
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	p = AddProfile(fs)
	fs.Parse([]string{"-cpuprofile", filepath.Join(dir, "missing", "cpu.pprof")})
	if _, err := p.Start(&stderr); err == nil {
		t.Error("unwritable -cpuprofile accepted")
	}
}

func TestHostResolve(t *testing.T) {
	rig := "host:pcpus=2,strategy=vanilla; vm:name=fg,kind=bench,bench=EP,vcpus=2"
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{nil, true},
		{[]string{"-spec", "host:pcpus=2; vm:name=fg,kind=hog,vcpus=1"}, false}, // fg not a bench
		{[]string{"-spec", "host:pcpus=2; vm:name=bg,kind=hog,vcpus=1"}, false}, // no fg
		{[]string{"-spec", rig + "; vm:name=bg,kind=hog,vcpus=3"}, false},       // pins past pCPU 1
		{[]string{"-spec", "host:pcpus=2,strategy=irs; vm:name=fg,kind=bench,bench=EP,vcpus=2"}, false},
		{[]string{"-spec", "host:pcpus=2; vm:name=fg,kind=bench,bench=EP,vcpus=2,irs=on"}, false},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		h := AddHost(fs, rig)
		if err := fs.Parse(append(tc.args, "-seed", "9")); err != nil {
			t.Fatal(err)
		}
		spec, err := h.Resolve("bench")
		if (err == nil) != tc.ok || *h.Seed != 9 || tc.ok && spec.String() != rig {
			t.Errorf("%v: spec %q, seed %d, err %v", tc.args, spec, *h.Seed, err)
		}
	}
}

func TestStrategies(t *testing.T) {
	allowed := []core.Strategy{core.StrategyVanilla, core.StrategyIRS}
	if got, err := Strategies(" irs,vanilla", allowed...); err != nil || len(got) != 2 || got[0] != core.StrategyIRS {
		t.Fatalf("Strategies = %v, %v", got, err)
	}
	for _, list := range []string{"", "irs,", "ple", "fifo"} {
		if _, err := Strategies(list, allowed...); err == nil || !strings.Contains(err.Error(), "valid: [vanilla irs]") {
			t.Errorf("Strategies(%q) = %v", list, err)
		}
	}
}
