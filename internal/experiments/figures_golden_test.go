package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFigureGoldens pins every registered figure end to end at a tiny
// size: the TSV each emits at 30 flows per point, seed 1 and one 50%
// load must equal testdata/figures/<id>.tsv byte for byte. Regenerate
// with PASE_UPDATE=1 go test ./internal/experiments -run
// TestFigureGoldens and review the diff like any golden.
func TestFigureGoldens(t *testing.T) {
	o := Opts{NumFlows: 30, Seed: 1, Loads: []float64{0.5}}
	dir := filepath.Join("testdata", "figures")
	update := os.Getenv("PASE_UPDATE") != ""
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range Figures {
		t.Run(f.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := f.Run(o).WriteTSV(&buf); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join(dir, f.ID+".tsv")
			if update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with PASE_UPDATE=1)", err)
			}
			if got := buf.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("figure %s TSV diverged from %s:\ngot:\n%s\nwant:\n%s", f.ID, golden, got, want)
			}
		})
	}
}
