package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestQuickFiguresMatchGolden pins the deterministic rows of the quick
// Fig. 9 and Fig. 11 runs at seed 1 — every NAE cell, which moves if a
// UDF's CPU or IO accounting, the buffer cache's hit/miss sequence or a
// model's insert/compress behaviour changes by a single step — and of the
// quick chaos, chaoslatency and memwall runs, whose fault rates,
// severities, retry policy and memory-wall geometry are fixed constants
// of the harness. chaosrepl and chaosnet are left out: their NAE and lag
// columns vary from run to run. The golden
// files are the runs' stdout with the wall-clock "[... completed in ...]"
// line removed; regenerate one with
//
//	go run ./cmd/mlqbench -exp fig9 -quick -seed 1 2>/dev/null | grep -v 'completed in' > cmd/mlqbench/testdata/fig9_quick_seed1.golden
func TestQuickFiguresMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five quick experiments over the full substrates")
	}
	for _, exp := range []string{"fig9", "fig11", "chaos", "chaoslatency", "memwall"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", exp+"_quick_seed1.golden"))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(os.Args[0], "-exp", exp, "-quick", "-seed", "1")
			cmd.Env = append(os.Environ(), "MLQBENCH_AS_MAIN=1")
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("mlqbench -exp %s: %v", exp, err)
			}
			var got []byte
			for _, line := range bytes.SplitAfter(out, []byte("\n")) {
				if !bytes.Contains(line, []byte("completed in")) {
					got = append(got, line...)
				}
			}
			if !bytes.Equal(got, want) {
				t.Errorf("-exp %s -quick -seed 1 output differs from the golden rows\n got:\n%s\nwant:\n%s", exp, got, want)
			}
		})
	}
}
