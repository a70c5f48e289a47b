package main

import (
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlq/internal/events"
	"mlq/internal/telemetry"
)

// TestMain lets a test run this binary as mlqbench itself: with
// MLQBENCH_AS_MAIN=1 in the environment the process is main on its own
// arguments, exit status included.
func TestMain(m *testing.M) {
	if os.Getenv("MLQBENCH_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFailedRunExportsEvents checks a run that fails still exits nonzero
// and leaves its timeline: events.mlqbb decodes cleanly with reason
// run-failed.
func TestFailedRunExportsEvents(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-exp", "nonsense", "-events-dir", dir)
	cmd.Env = append(os.Environ(), "MLQBENCH_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("failed run: err = %v, want exit status 1\n%s", err, out)
	}
	meta, _, crcErrs, err := events.ReadDumpFile(filepath.Join(dir, "events.mlqbb"))
	if err != nil {
		t.Fatalf("decoding the export: %v\n%s", err, out)
	}
	if crcErrs != 0 {
		t.Errorf("export has %d CRC-damaged frame(s), want 0", crcErrs)
	}
	if meta.Reason != "run-failed" {
		t.Errorf("export reason = %q, want run-failed", meta.Reason)
	}
}

// The experiment plumbing is covered in internal/harness; these tests pin
// the CLI wiring: every experiment name resolves and runs end to end on a
// tiny workload.
func TestRunEachExperiment(t *testing.T) {
	for _, exp := range []string{"fig8", "fig10", "fig12", "shift", "nn", "leo", "ablate"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			if err := run(exp, 1, true, 120, 0, 1, nil, nil); err != nil {
				t.Fatalf("run(%q): %v", exp, err)
			}
		})
	}
}

func TestRunRealExperimentsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full substrates")
	}
	for _, exp := range []string{"fig9", "fig11", "chaos"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			if err := run(exp, 1, true, 60, 0, 1, nil, nil); err != nil {
				t.Fatalf("run(%q): %v", exp, err)
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nonsense", 1, true, 50, 0, 1, nil, nil); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunMemoryOverride(t *testing.T) {
	if err := run("fig8", 2, true, 100, 4096, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// chaosSeries are the exposition families the chaos run must surface, one
// per instrumented layer: quadtree shape, engine feedback loop, buffer
// cache, and the rolling model-accuracy tracker.
var chaosSeries = []string{
	"mlq_quadtree_memory_utilization{",
	"mlq_quadtree_compressions_total{",
	"mlq_quadtree_compress_seconds_count{",
	"mlq_engine_predictions_total{",
	"mlq_engine_observations_total{",
	"mlq_engine_breaker_open{",
	"mlq_buffercache_hit_ratio{",
	"mlq_model_nae{",
}

// TestTelemetryScrapeMidRun runs the chaos experiment with a live exposition
// server and scrapes /metrics over HTTP while it executes, checking every
// instrumented layer is visible to an external observer with sane values.
func TestTelemetryScrapeMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the chaos substrates")
	}
	reg := telemetry.New()
	srv, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan error, 1)
	go func() { done <- run("chaos", 1, true, 60, 0, 1, reg, nil) }()

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL())
		if err != nil {
			t.Fatalf("scraping %s: %v", srv.URL(), err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	hasAll := func(body string) bool {
		for _, s := range chaosSeries {
			if !strings.Contains(body, s) {
				return false
			}
		}
		return true
	}

	// Poll mid-run until every layer's series has appeared (or the run
	// ends first — the final scrape below still asserts everything).
	running := true
	for running && !hasAll(scrape()) {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		case <-time.After(20 * time.Millisecond):
		}
	}
	if running {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	body := scrape()
	for _, s := range chaosSeries {
		if !strings.Contains(body, s) {
			t.Errorf("series %q missing from exposition", s)
		}
	}
	if got := seriesSum(t, body, "mlq_engine_predictions_total{"); got <= 0 {
		t.Errorf("predictions total = %g, want > 0", got)
	}
	if got := seriesSum(t, body, "mlq_engine_observations_total{"); got <= 0 {
		t.Errorf("observations total = %g, want > 0", got)
	}
	if got := seriesMax(t, body, "mlq_quadtree_memory_utilization{"); got <= 0 || got > 1.0001 {
		t.Errorf("memory utilization = %g, want in (0, 1]", got)
	}
	if got := seriesSum(t, body, "mlq_quadtree_compressions_total{"); got <= 0 {
		t.Errorf("compressions total = %g, want > 0 (the 1.8 KB budget forces passes)", got)
	}
	if got := seriesMax(t, body, "mlq_buffercache_hit_ratio{"); got < 0 || got > 1 {
		t.Errorf("hit ratio = %g, want in [0, 1]", got)
	}
	for _, line := range seriesLines(body, "mlq_engine_breaker_open{") {
		v := lineValue(t, line)
		if v != 0 && v != 1 {
			t.Errorf("breaker gauge = %g, want 0 or 1: %s", v, line)
		}
	}
	if lines := seriesLines(body, "mlq_model_nae{"); len(lines) == 0 {
		t.Error("no rolling NAE series")
	} else {
		for _, line := range lines {
			if v := lineValue(t, line); v < 0 {
				t.Errorf("NAE = %g, want >= 0: %s", v, line)
			}
		}
	}
}

func seriesLines(body, prefix string) []string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			out = append(out, line)
		}
	}
	return out
}

func lineValue(t *testing.T, line string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", line, err)
	}
	return v
}

func seriesSum(t *testing.T, body, prefix string) float64 {
	t.Helper()
	var sum float64
	for _, line := range seriesLines(body, prefix) {
		sum += lineValue(t, line)
	}
	return sum
}

func seriesMax(t *testing.T, body, prefix string) float64 {
	t.Helper()
	max := -1.0
	for _, line := range seriesLines(body, prefix) {
		if v := lineValue(t, line); v > max {
			max = v
		}
	}
	return max
}
