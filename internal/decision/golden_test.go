package decision

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The export goldens pin the exact bytes of both decision exporters on
// the exportRecs set. When a change to the output is intentional,
// regenerate with:
//
//	go test ./internal/decision -run TestGoldenExports -update

var update = flag.Bool("update", false, "rewrite the golden export files")

func TestGoldenExports(t *testing.T) {
	var js, tr bytes.Buffer
	if err := WriteJSON(&js, exportRecs(), 7); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&tr, exportRecs()); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		got  []byte
	}{{"decisions.json", js.Bytes()}, {"decisions.trace.json", tr.Bytes()}} {
		path := filepath.Join("testdata", g.name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("no golden (run with -update to create): %v", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s drifted from golden.\n--- got ---\n%s--- want ---\n%s", g.name, g.got, want)
		}
	}
}
