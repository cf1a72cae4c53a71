// Package cli holds the irs* commands' flag sets: the cluster
// load-spec source, the single-host rig, the strategy list and pprof
// profiling. It registers and resolves flags only; running, reporting
// and gating stay in the commands.
//
// The commands share one exit-code rule: 2 = bad input (a flag that
// does not parse, an unknown name, a malformed spec or query, a flag
// given without the flag it qualifies), 1 = the run failed (a
// simulation error, an unwritable output, a gate that did not hold),
// 0 = success. The one exception is an unknown irsim experiment id:
// the other ids still run, and the exit is 1.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/topology"
)

// source is the -spec text and -seed pair every spec flag set
// registers.
type source struct {
	spec *string
	// Seed is the run's seed; repeated runs start from it.
	Seed *uint64
}

func addSource(fs *flag.FlagSet, spec, usage string) source {
	return source{spec: fs.String("spec", spec, usage), Seed: fs.Uint64("seed", 1, "random seed")}
}

// LoadSpec is the load-spec flag set: one of -variant, -spec or -file
// picks the spec, -list asks for the built-in variants, and -seed seeds
// the compiled cluster config.
type LoadSpec struct {
	source
	List *bool

	variant, file *string
}

// AddLoadSpec registers the load-spec flags on fs.
func AddLoadSpec(fs *flag.FlagSet) *LoadSpec {
	return &LoadSpec{
		source:  addSource(fs, "", "inline load spec (topology.ParseLoadSpec syntax)"),
		variant: fs.String("variant", "", "built-in load spec by name (see -list)"),
		file:    fs.String("file", "", "read the load spec from a file"),
		List:    fs.Bool("list", false, "list built-in variants and exit"),
	}
}

// PrintVariants writes the built-in rigs, one "name spec" line each.
func PrintVariants(w io.Writer) {
	for _, v := range experiments.Rigs() {
		fmt.Fprintf(w, "%-14s %s\n", v.Name, v.Spec)
	}
}

// Resolve reads the one selected spec source and compiles it with
// experiments.ScaleRig. name labels the source in reports: the variant
// name, "spec", or the file path. Every error is bad input.
func (l *LoadSpec) Resolve() (name string, spec topology.LoadSpec, cfg cluster.Config, err error) {
	set := 0
	for _, s := range []string{*l.variant, *l.spec, *l.file} {
		if s != "" {
			set++
		}
	}
	var text []byte
	switch {
	case set != 1:
		err = errors.New("exactly one of -variant, -spec, -file must be given")
	case *l.variant != "":
		v, ok := experiments.RigByName(*l.variant)
		if !ok {
			err = fmt.Errorf("unknown variant %q (try -list)", *l.variant)
		}
		text, name = []byte(v.Spec), v.Name
	case *l.spec != "":
		text, name = []byte(*l.spec), "spec"
	default:
		text, err = os.ReadFile(*l.file)
		name = *l.file
	}
	if err != nil {
		return "", spec, cfg, err
	}
	spec, cfg, err = experiments.ScaleRig(string(text), *l.Seed)
	return name, spec, cfg, err
}

// Host is the single-host rig flag set: -spec is the rig
// (core.ParseHostSpec syntax; the command's own rig by default) and
// -seed its seed.
type Host struct{ source }

// AddHost registers the host flags on fs, with rig as -spec's default.
func AddHost(fs *flag.FlagSet, rig string) *Host {
	return &Host{addSource(fs, rig, "single-host rig (core.ParseHostSpec syntax)")}
}

// Resolve parses -spec and checks that its VM fg, the one the
// commands report on, is of kind fgKind. The commands run the rig
// under each -strategy (core.HostSpec.WithStrategy), so a rig that
// sets what that replaces — strategy, or irs on a bench or server VM —
// is rejected rather than silently overridden. Every error is bad
// input.
func (h *Host) Resolve(fgKind string) (core.HostSpec, error) {
	spec, err := core.ParseHostSpec(*h.spec)
	if err != nil {
		return spec, fmt.Errorf("-spec: %w", err)
	}
	if fg := spec.VM("fg"); fg == nil || fg.Kind != fgKind {
		return spec, fmt.Errorf("-spec: the rig needs a VM fg of kind %s", fgKind)
	}
	if spec.String() != spec.WithStrategy(core.StrategyVanilla).String() {
		return spec, errors.New("-spec: strategy and a bench or server VM's irs are set by the command's strategies")
	}
	return spec, nil
}

// Strategies parses a comma-separated -strategy list whose every name
// must be one of allowed; the error names the valid choices.
func Strategies(list string, allowed ...core.Strategy) ([]core.Strategy, error) {
	var out []core.Strategy
	for _, name := range strings.Split(list, ",") {
		s, ok := core.StrategyByName(strings.TrimSpace(name))
		if !ok || !slices.Contains(allowed, s) {
			return nil, fmt.Errorf("unknown strategy %q (valid: %v)", name, allowed)
		}
		out = append(out, s)
	}
	return out, nil
}

// Profile is the profiling flag set: -cpuprofile and -memprofile.
type Profile struct {
	name     string
	cpu, mem *string
}

// AddProfile registers the profiling flags on fs.
func AddProfile(fs *flag.FlagSet) *Profile {
	return &Profile{
		name: fs.Name(),
		cpu:  fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem:  fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// Start begins the CPU profile when -cpuprofile is set. The returned
// stop function ends it and writes the heap profile when -memprofile
// is set, reporting failures to stderr; defer it over the run.
func (p *Profile) Start(stderr io.Writer) (stop func(), err error) {
	var cpu *os.File
	if *p.cpu != "" {
		if cpu, err = os.Create(*p.cpu); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(stderr, "%s: -cpuprofile: %v\n", p.name, err)
			}
		}
		if *p.mem != "" {
			if err := writeHeap(*p.mem); err != nil {
				fmt.Fprintf(stderr, "%s: -memprofile: %v\n", p.name, err)
			}
		}
	}, nil
}

func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
