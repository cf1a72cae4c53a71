package core

import (
	"repro/internal/guest"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file provides convenience VMSpec builders for the standard
// shapes in the paper's evaluation: a foreground VM running a catalog
// benchmark, an interference VM running n CPU hogs, a background VM
// looping a real parallel application, and server VMs.

// BenchmarkVM builds a foreground VM running bench once. mode 0 keeps
// the benchmark's native wait policy. pins maps vCPUs to pCPUs (nil =
// unpinned).
func BenchmarkVM(name string, bench workload.Benchmark, mode workload.SyncMode, vcpus int, pins []int) VMSpec {
	return VMSpec{
		Name:  name,
		VCPUs: vcpus,
		Pin:   pins,
		Attach: func(k *guest.Kernel, seed uint64) *workload.Instance {
			return bench.Instantiate(k, mode, seed)
		},
	}
}

// HogVM builds an interference VM with one vCPU per hog, pinned to the
// given pCPUs (nil = unpinned).
func HogVM(name string, hogs int, pins []int) VMSpec {
	return VMSpec{
		Name:  name,
		VCPUs: hogs,
		Pin:   pins,
		Attach: func(k *guest.Kernel, seed uint64) *workload.Instance {
			return workload.NewHog(k, hogs)
		},
	}
}

// BackgroundVM builds an interfering VM that loops a real parallel
// application with nthreads threads (the fluidanimate/streamcluster/
// LU/UA backgrounds of Figures 5-7 and 9-10).
func BackgroundVM(name string, bench workload.Benchmark, mode workload.SyncMode, nthreads int, pins []int) VMSpec {
	return VMSpec{
		Name:   name,
		VCPUs:  nthreads,
		Pin:    pins,
		Repeat: true,
		Attach: func(k *guest.Kernel, seed uint64) *workload.Instance {
			b := bench
			switch b.Kind {
			case workload.KindParallel:
				b.Parallel.Threads = nthreads
			case workload.KindWorkSteal:
				b.WorkSteal.Threads = nthreads
			}
			return b.Instantiate(k, mode, seed)
		},
	}
}

// AttackerVM builds an adversarial VM running the attacker described
// by spec (see workload.ParseAttack) on vcpus vCPUs.
func AttackerVM(name string, spec workload.AttackSpec, vcpus int, pins []int) VMSpec {
	return VMSpec{
		Name:  name,
		VCPUs: vcpus,
		Pin:   pins,
		Attach: func(k *guest.Kernel, seed uint64) *workload.Instance {
			return workload.NewAttacker(k, spec, seed)
		},
	}
}

// ServerVM builds a VM running a server workload; its statistics are
// the run's Result.VM(name).Instance.Server.
func ServerVM(name string, spec workload.ServerSpec, vcpus int, pins []int) VMSpec {
	return VMSpec{
		Name:  name,
		VCPUs: vcpus,
		Pin:   pins,
		Attach: func(k *guest.Kernel, seed uint64) *workload.Instance {
			in, _ := workload.NewServer(k, spec, seed)
			return in
		},
	}
}

// SeqPins returns [first, first+1, ...] of length n — the standard
// one-vCPU-per-pCPU pinning of §5.1.
func SeqPins(first, n int) []int {
	pins := make([]int, n)
	for i := range pins {
		pins[i] = first + i
	}
	return pins
}

// Repeat runs a measurement runs times, calling fn with each run's
// index and seed: seed, seed+7919, seed+2·7919, ... (the paper
// averages repeated runs, each from its own seed). It stops at fn's
// first error and returns it; a caller that skips failed runs returns
// nil for them.
func Repeat(seed uint64, runs int, fn func(i int, seed uint64) error) error {
	for i := 0; i < runs; i++ {
		if err := fn(i, seed+uint64(i)*7919); err != nil {
			return err
		}
	}
	return nil
}

// Utilization returns the VM's CPU consumption relative to a fair
// share over the elapsed interval (Figure 2's metric).
func Utilization(res *Result, vmName string, fairShare sim.Time) float64 {
	vr := res.VM(vmName)
	if vr == nil || fairShare <= 0 {
		return 0
	}
	return float64(vr.CPUTime) / float64(fairShare)
}
