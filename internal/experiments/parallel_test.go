package experiments

import (
	"errors"
	"fmt"
	"testing"
)

// detOpt builds the shared options of the determinism tests. Workers
// is set explicitly: Workers == 0 would resolve to GOMAXPROCS, which
// on a single-CPU machine silently degrades to the serial path and
// tests nothing.
func detOpt(workers int) Options {
	return Options{Runs: 1, Seed: 11, Workers: workers}
}

// determinismIDs picks cheap but structurally diverse builders:
// measure-based figures (fig1a), direct-rig jobs (fig1b), per-run jobs
// (fig2), multi-value jobs (fig8, sadelay), whole-point jobs
// (ab-salimit, ab-ticket), row-rendering workers (obs, chaos), and the
// claim matrix with its job-sharing across checks.
func determinismIDs() []string {
	return []string{"ab-salimit", "ab-ticket", "chaos", "claims", "fig1a",
		"fig1b", "fig2", "fig8", "obs", "sadelay"}
}

// TestParallelMatchesSerial pins the harness's core guarantee: the
// parallel collect/execute/replay path renders byte-identical tables to
// the serial path, and two parallel runs (with different worker counts,
// hence different completion orders) are identical to each other.
func TestParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	for _, id := range determinismIDs() {
		t.Run(id, func(t *testing.T) {
			serial := mustTable(t, id, detOpt(1)).String()
			par4 := mustTable(t, id, detOpt(4)).String()
			par3 := mustTable(t, id, detOpt(3)).String()
			if par4 != serial {
				t.Errorf("parallel (4 workers) output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, par4)
			}
			if par3 != par4 {
				t.Errorf("parallel runs differ between worker counts:\n--- 4 workers ---\n%s--- 3 workers ---\n%s", par4, par3)
			}
		})
	}
}

// TestTryJobSkipsFailedCell pins the row-job contract on both harness
// paths: a failed cell is logged once, as "<key>: <err>", and left out
// of the table, while its neighbours render.
func TestTryJobSkipsFailedCell(t *testing.T) {
	for _, workers := range []int{1, 2} {
		var logs []string
		opt := Options{Runs: 1, Workers: workers, Logf: func(format string, args ...any) {
			logs = append(logs, fmt.Sprintf(format, args...))
		}}
		tb := runFigure(opt, func(h *harness) Table {
			var tb Table
			for _, name := range []string{"ok", "bad", "fine"} {
				row, err := tryJob(h, "cell|"+name, func() ([]string, error) {
					if name == "bad" {
						return nil, errors.New("boom")
					}
					return []string{name}, nil
				})
				if err == nil {
					tb.Rows = append(tb.Rows, row)
				}
			}
			return tb
		})
		if got := fmt.Sprint(tb.Rows); got != "[[ok] [fine]]" {
			t.Errorf("workers %d: rows %s, want [[ok] [fine]]", workers, got)
		}
		if got := fmt.Sprint(logs); got != "[cell|bad: boom]" {
			t.Errorf("workers %d: logs %s, want [cell|bad: boom]", workers, got)
		}
	}
}
