package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestQuickFiguresMatchGolden pins the deterministic rows of the quick
// runs at seed 1. Fig. 8, Fig. 9, Fig. 11, Fig. 12, shift, memcurve,
// cache, leo and ablate print only NAE, memory and count cells, which move
// if a UDF's CPU or IO accounting, the buffer cache's hit/miss sequence or
// a model's insert/compress behaviour changes by a single step. chaos,
// chaoslatency and memwall add fault rates, severities, retry policy and
// memory-wall geometry, all fixed constants of the harness. nn, fig10 and
// concurrency are left out because they print wall-clock columns;
// chaosrepl and chaosnet because their NAE and lag columns vary from run
// to run. The golden files are the runs' stdout with the wall-clock
// "[... completed in ...]" line removed; regenerate one with
//
//	go run ./cmd/mlqbench -exp fig9 -quick -seed 1 2>/dev/null | grep -v 'completed in' > cmd/mlqbench/testdata/fig9_quick_seed1.golden
func TestQuickFiguresMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twelve quick experiments over the full substrates")
	}
	for _, exp := range []string{
		"fig8", "fig9", "fig11", "fig12", "shift", "memcurve", "cache", "leo", "ablate",
		"chaos", "chaoslatency", "memwall",
	} {
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
