package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// FuzzParseHostSpec: no input panics the parser, every spec it accepts
// validates, and String renders a spec that parses back to an equal
// one. The committed corpus holds every rig the experiments and
// commands compile.
func FuzzParseHostSpec(f *testing.F) {
	for _, s := range []string{
		"",
		"host:pcpus=4",
		"host:pcpus=4,strategy=irs; vm:name=fg,kind=bench,bench=EP,mode=block,vcpus=4,irs=on; vm:name=bg,kind=hog,vcpus=1",
		"# comment\nHOST: pcpus = 8 , unpinned = on\nvm:name=fg,kind=bench,bench=cg,mode=spin,vcpus=8",
		"host:pcpus=1; vm:name=a,kind=attacker,vcpus=1; attack:tick-evade,margin=1ms",
		"host:pcpus=4; vm:name=s,kind=server,vcpus=4,service=1ms,duration=1s,arrival=-1s",
		"host:pcpus=4; vm:name=h,kind=hog,vcpus=1,service=1ms",
		"host:pcpus=4; vm:name=x,kind=hog,vcpus=1; vm:name=x,kind=hog,vcpus=1",
		"host:pcpus=4; faults:drop-sa=0.1; faults:dup-sa=0.1",
		"host:pcpus=4,strategy=fifo",
		"host:pcpus=4; attack:none",
		"vm:name=fg",
		";;;",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := core.ParseHostSpec(text)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted %q but Validate: %v", text, err)
		}
		back, err := core.ParseHostSpec(s.String())
		if err != nil {
			t.Fatalf("%q renders %q, which does not parse: %v", text, s.String(), err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip of %q via %q:\n%+v\n!=\n%+v", text, s.String(), back, s)
		}
	})
}

func TestParseHostSpecErrors(t *testing.T) {
	fg := "host:pcpus=4; vm:name=fg,kind=bench,bench=EP,vcpus=4; "
	for _, tc := range []struct{ text, want string }{
		{"vm:name=fg,kind=hog,vcpus=1", "pcpus > 0"},
		{"host:pcpus=4; bogus:x=1", `unknown section "bogus"`},
		{"host:pcpus=4; host:pcpus=2", `duplicate section "host"`},
		{"host:pcpus=4,strategy=fifo", `strategy "fifo"`},
		{fg + "vm:name=fg,kind=hog,vcpus=1", `"fg" already taken`},
		{fg + "vm:name=bg,kind=hog,vcpus=5", "outside the host's 4 pCPUs"},
		{fg + "vm:name=bg,kind=db,vcpus=1", `kind "db"`},
		{"host:pcpus=4; vm:name=fg,kind=bench,bench=nosuch,vcpus=4", `unknown benchmark "nosuch"`},
		{"host:pcpus=4; vm:name=fg,kind=bench,bench=EP,mode=busy,vcpus=4", `mode "busy"`},
		{fg + "vm:name=bg,kind=hog,bench=EP,vcpus=1", "bench and mode"},
		{fg + "vm:name=bg,kind=hog,vcpus=1,threads=2", "server fields"},
		{"host:pcpus=4; vm:name=s,kind=server,vcpus=4,service=1ms", "duration > 0"},
		{"host:pcpus=1; vm:name=a,kind=attacker,vcpus=1", "attacker VM and the attack section"},
		{fg + "attack:tick-evade", "attacker VM and the attack section"},
		{fg + "faults:drop-sa=2", "outside [0,1]"},
	} {
		if _, err := core.ParseHostSpec(tc.text); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseHostSpec(%q) = %v, want an error containing %q", tc.text, err, tc.want)
		}
	}
}

// TestHostSpecMatchesBuilders compiles the §5.1 rig — a 4-vCPU VM
// running a benchmark against two hogs — from text, and from the text
// String renders, and checks both run exactly like the same rig put
// together from the hand builders, under every strategy, pinned and
// unpinned.
func TestHostSpecMatchesBuilders(t *testing.T) {
	bench, _ := workload.ByName("EP")
	for _, unpinned := range []bool{false, true} {
		for _, strat := range append(core.Strategies(), core.StrategyStrictCo) {
			var fgPins, bgPins []int
			if !unpinned {
				fgPins, bgPins = core.SeqPins(0, 4), core.SeqPins(0, 2)
			}
			fg := core.BenchmarkVM("fg", bench, workload.SyncBlocking, 4, fgPins)
			fg.IRS = strat == core.StrategyIRS
			want := runResult(t, core.Scenario{
				PCPUs: 4, Strategy: strat, Seed: 3, Unpinned: unpinned,
				VMs: []core.VMSpec{fg, core.HogVM("bg", 2, bgPins)},
			})

			spec, err := core.ParseHostSpec(fmt.Sprintf("host:pcpus=4,strategy=%s,unpinned=%v; "+
				"vm:name=fg,kind=bench,bench=ep,mode=block,vcpus=4,irs=%v; vm:name=bg,kind=hog,vcpus=2",
				strat, unpinned, strat == core.StrategyIRS))
			if err != nil {
				t.Fatal(err)
			}
			back, err := core.ParseHostSpec(spec.String())
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []core.HostSpec{spec, back, spec.WithStrategy(strat)} {
				if got := runResult(t, s.Scenario(3)); !reflect.DeepEqual(got, want) {
					t.Errorf("%s unpinned=%v: spec %q\nran %+v\nwant %+v", strat, unpinned, s, got, want)
				}
			}
		}
	}
}

// runResult runs scn and returns its result with the pointers into
// the run cleared, so two results compare by value.
func runResult(t *testing.T, scn core.Scenario) *core.Result {
	t.Helper()
	res, err := core.Run(scn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.VMs {
		res.VMs[i].Instance, res.VMs[i].Kernel = nil, nil
	}
	return res
}
