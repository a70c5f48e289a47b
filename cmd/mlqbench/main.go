// Command mlqbench regenerates the paper's evaluation (§5): every figure's
// table is printed from a fresh run of the corresponding experiment.
//
// Usage:
//
//	mlqbench [-exp all|fig8|fig9|fig10|fig11|fig12|ablate] [-quick] [-seed N]
//
// Figures 9, 10(a), 11(a) and 12 execute the six "real" UDFs — the text and
// spatial search engines built in this repository — for every query, so a
// full run takes a few minutes; -quick shrinks the workloads ~10x while
// preserving the qualitative shapes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mlq/internal/dist"
	"mlq/internal/events"
	"mlq/internal/harness"
	"mlq/internal/spatialdb"
	"mlq/internal/telemetry"
	"mlq/internal/textdb"
	"mlq/internal/udf"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, fig8, fig9, fig10, fig11, fig12, shift, nn, leo, memcurve, memwall, cache, chaos, chaoslatency, chaosrepl, chaosnet, ablate, concurrency (concurrency is excluded from all: its numbers are machine-dependent wall-clock throughput)")
	seed := flag.Int64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "shrink workloads ~10x for a fast smoke run")
	queries := flag.Int("queries", 0, "override the test-workload length (0 = paper's values)")
	mem := flag.Int("mem", 0, "override the model memory limit in bytes (0 = paper's 1.8 KB)")
	trials := flag.Int("trials", 1, "replicate accuracy cells across N seeds (fig8 reports mean±std)")
	telemetryAddr := flag.String("telemetry", "", "serve live metrics on this address while experiments run (e.g. localhost:9090, :0 for a free port; empty disables)")
	eventsDir := flag.String("events-dir", "", "record the causal event spine: flight-recorder dumps land in this directory and a final events.mlqbb export is written on exit (empty disables)")
	flag.Parse()

	var reg *telemetry.Registry
	if *telemetryAddr != "" {
		reg = telemetry.New()
		srv, err := telemetry.Serve(*telemetryAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlqbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving %s\n", srv.URL())
		defer srv.Close()
	}

	rec, err := setupEvents(*eventsDir, *seed, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlqbench:", err)
		os.Exit(1)
	}

	// A failed run exports too: its timeline is the one worth decoding.
	err = run(*exp, *seed, *quick, *queries, *mem, *trials, reg, rec)
	if err = errors.Join(err, exportEvents(*eventsDir, rec, err)); err != nil {
		fmt.Fprintln(os.Stderr, "mlqbench:", err)
		os.Exit(1)
	}
}

// setupEvents builds the causal event spine when -events-dir is set: fault
// triggers auto-dump black boxes into the directory, and exportEvents writes
// the final ring contents on exit so a healthy run still leaves a trace to
// decode with `mlqtool trace`.
func setupEvents(dir string, seed int64, reg *telemetry.Registry) (*events.Recorder, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating events dir: %w", err)
	}
	// 8192 slots per subsystem (512 KiB each): the replica ring sees up to
	// eight events per observation (sends, receives, applies, epochs across
	// the fleet) and chaos transports deliver in bursts, so the default ring
	// would evict an observation's early hops before its late ones land.
	rec := events.New(events.Config{Seed: uint64(seed), DumpDir: dir, RingSize: 8192})
	if reg != nil {
		rec.Instrument(reg)
	}
	return rec, nil
}

// exportEvents writes the spine's final state to events.mlqbb in the dir,
// with reason run-failed when runErr is set.
func exportEvents(dir string, rec *events.Recorder, runErr error) error {
	if rec == nil {
		return nil
	}
	reason := "run-complete"
	if runErr != nil {
		reason = "run-failed"
	}
	path := filepath.Join(dir, "events.mlqbb")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("exporting events: %w", err)
	}
	if err := rec.DumpTo(f, reason); err != nil {
		f.Close()
		return fmt.Errorf("exporting events: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("exporting events: %w", err)
	}
	fmt.Fprintf(os.Stderr, "events: exported %s (decode with `mlqtool trace -dump %s`)\n", path, path)
	return nil
}

func run(exp string, seed int64, quick bool, queries, mem, trials int, reg *telemetry.Registry, rec *events.Recorder) error {
	synthOpts := harness.Options{Seed: seed, Queries: 5000, MemoryLimit: mem, Trials: trials, Telemetry: reg, Events: rec}
	realOpts := harness.Options{Seed: seed, Queries: 2500, MemoryLimit: mem, Telemetry: reg, Events: rec}
	if quick {
		synthOpts.Queries, realOpts.Queries = 600, 400
	}
	if queries > 0 {
		synthOpts.Queries, realOpts.Queries = queries, queries
	}

	needReal := exp == "all" || exp == "fig9" || exp == "fig10" || exp == "fig11" || exp == "fig12"
	var udfs []udf.UDF
	var winUDF udf.UDF
	if needReal {
		fmt.Fprintln(os.Stderr, "building text corpus and spatial map...")
		start := time.Now()
		tdb, err := textdb.Generate(textdb.Config{Seed: seed})
		if err != nil {
			return err
		}
		sdb, err := spatialdb.Generate(spatialdb.Config{Seed: seed + 1})
		if err != nil {
			return err
		}
		udfs = append(tdb.UDFs(), sdb.UDFs()...)
		winUDF = sdb.UDFs()[1]
		fmt.Fprintf(os.Stderr, "substrates ready in %v (%d docs, %d objects, %d disk pages)\n\n",
			time.Since(start).Round(time.Millisecond), tdb.NumDocs(), sdb.NumObjects(),
			tdb.Store().NumPages()+sdb.Store().NumPages())
	}

	did := false
	// registered accumulates every experiment name runExp sees, so an unknown
	// -exp can print the real list instead of a hand-maintained one that
	// drifts. "all" and "concurrency" are dispatched outside runExp.
	registered := []string{"all", "concurrency"}
	runExp := func(name string, fn func() error) error {
		registered = append(registered, name)
		if exp != "all" && exp != name {
			return nil
		}
		did = true
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if err := runExp("fig8", func() error {
		rows, err := harness.Fig8(nil, synthOpts)
		if err != nil {
			return err
		}
		harness.RenderFig8(os.Stdout, rows)
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("fig9", func() error {
		rows, err := harness.Fig9(udfs, realOpts)
		if err != nil {
			return err
		}
		harness.RenderFig9(os.Stdout, "Figure 9: prediction accuracy (NAE), real UDFs, CPU cost", rows)
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("fig10", func() error {
		real, err := harness.Fig10Real(winUDF, realOpts)
		if err != nil {
			return err
		}
		harness.RenderFig10(os.Stdout, "Figure 10(a): modeling costs, real UDF (WIN), uniform queries", real)
		fmt.Println()
		synth, err := harness.Fig10Synthetic(synthOpts)
		if err != nil {
			return err
		}
		harness.RenderFig10(os.Stdout, "Figure 10(b): modeling costs, synthetic UDF, uniform queries", synth)
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("fig11", func() error {
		real, err := harness.Fig11a(udfs, realOpts)
		if err != nil {
			return err
		}
		harness.RenderFig9(os.Stdout, "Figure 11(a): prediction accuracy (NAE), real UDFs, disk IO cost, beta=10", real)
		fmt.Println()
		synth, err := harness.Fig11b(nil, synthOpts)
		if err != nil {
			return err
		}
		harness.RenderFig11b(os.Stdout, synth)
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("fig12", func() error {
		synth, err := harness.Fig12Synthetic(25, synthOpts)
		if err != nil {
			return err
		}
		harness.RenderFig12(os.Stdout, "Figure 12: prediction error vs data points processed (synthetic, uniform)", synth)
		fmt.Println()
		real, err := harness.Fig12Real(winUDF, 25, realOpts)
		if err != nil {
			return err
		}
		harness.RenderFig12(os.Stdout, "Figure 12: prediction error vs data points processed (WIN, uniform)", real)
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("shift", func() error {
		series, err := harness.Shift(16, synthOpts)
		if err != nil {
			return err
		}
		harness.RenderShift(os.Stdout, series)
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("nn", func() error {
		rows, err := harness.NNComparison(dist.KindGaussianRandom, synthOpts)
		if err != nil {
			return err
		}
		harness.RenderNN(os.Stdout, dist.KindGaussianRandom.String(), rows)
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("cache", func() error {
		rows, err := harness.CachePolicies(realOpts)
		if err != nil {
			return err
		}
		harness.RenderCachePolicies(os.Stdout, rows)
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("memcurve", func() error {
		rows, err := harness.MemCurve(nil, dist.KindGaussianRandom, synthOpts)
		if err != nil {
			return err
		}
		harness.RenderMemCurve(os.Stdout, dist.KindGaussianRandom.String(), rows)
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("memwall", func() error {
		rows, err := harness.MemWall(synthOpts)
		if err != nil {
			return err
		}
		harness.RenderMemWall(os.Stdout, rows)
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("leo", func() error {
		rows, err := harness.LEOComparison(dist.KindGaussianRandom, synthOpts)
		if err != nil {
			return err
		}
		harness.RenderLEO(os.Stdout, dist.KindGaussianRandom.String(), rows)
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("chaos", func() error {
		// Chaos builds its own databases: its page-read fault hooks must
		// never touch the stores the other experiments share.
		rows, err := harness.Chaos(realOpts)
		if err != nil {
			return err
		}
		harness.RenderChaos(os.Stdout, rows)
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("chaoslatency", func() error {
		// Like chaos, this experiment builds its own databases: the latency
		// hooks and retry policies it installs must never touch the caches
		// the other experiments share.
		rows, err := harness.ChaosLatency(realOpts)
		if err != nil {
			return err
		}
		harness.RenderChaosLatency(os.Stdout, rows)
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("chaosrepl", func() error {
		// The replication chaos experiment is self-contained: it builds its
		// own replica groups, journals and checkpoints in a scratch dir and
		// asserts byte-identical convergence internally.
		rows, err := harness.ChaosRepl(realOpts)
		if err != nil {
			return err
		}
		harness.RenderChaosRepl(os.Stdout, rows)
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("chaosnet", func() error {
		// The same fault stories as chaosrepl, carried over real loopback
		// sockets: reconnect/backoff, heartbeat liveness, CRC framing and the
		// resumable snapshot bootstrap are load-bearing here.
		rows, err := harness.ChaosNet(realOpts)
		if err != nil {
			return err
		}
		harness.RenderChaosNet(os.Stdout, rows)
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("ablate", func() error {
		for _, param := range harness.AblationParams() {
			rows, err := harness.Ablate(param, nil, synthOpts)
			if err != nil {
				return err
			}
			harness.RenderAblation(os.Stdout, rows)
			fmt.Println()
		}
		return nil
	}); err != nil {
		return err
	}

	// The concurrency experiment is deliberately not part of "all": every
	// number it prints is machine-dependent wall-clock throughput, so folding
	// it into the default run would make `mlqbench` output unstable across
	// hosts without adding any figure the paper reproduces.
	if exp == "concurrency" {
		did = true
		start := time.Now()
		rows, err := harness.Concurrency(nil, synthOpts)
		if err != nil {
			return fmt.Errorf("concurrency: %w", err)
		}
		harness.RenderConcurrency(os.Stdout, rows)
		fmt.Printf("[concurrency completed in %v]\n\n", time.Since(start).Round(time.Millisecond))
	}

	if !did {
		sort.Strings(registered)
		return fmt.Errorf("unknown experiment %q; registered experiments:\n  %s",
			exp, strings.Join(registered, "\n  "))
	}
	return nil
}
