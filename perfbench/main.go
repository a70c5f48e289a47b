// Command perfbench is the repository's end-to-end benchmark. It drives the
// Fig. 1 feedback loop through the public APIs of its layers and measures
// them from outside: SQL over the six real UDFs (udf_query), snapshot
// predict serving under a trickle of observations (predict_serve), and
// replicated ingest over loopback TCP (ingest_fleet).
//
// Usage (from the repository root, normally through perfbench/run.sh):
//
//	perfbench --workload udf_query --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run is untraced and the last stdout line carries the
// end-to-end metrics. With --trace 1 the run measures the workload three
// times, untraced, with spans and the event spine installed, and untraced
// again, and reports the per-layer metrics of the traced phase plus the
// tracing overhead. Every result is preceded by
// an environment stamp line, and the last line is always one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report maps metric names to values.
type report map[string]metric

// endToEnd and perLayer are the metrics BENCHMARK.json declares, with their
// units. Every untraced run reports every end-to-end metric; every traced
// run reports every per-layer metric, 0 for a layer the workload bypasses.
var endToEnd = map[string]string{
	"setup_s":   "s",
	"ops_per_s": "1/s",
	"op_p50_us": "us",
	"nae":       "ratio",
	"heap_mb":   "MB",
}

var perLayer = map[string]string{
	"buffercache.spatial.evictions":        "count",
	"buffercache.spatial.ghost_hits":       "count",
	"buffercache.spatial.hit_ratio":        "ratio",
	"buffercache.spatial.misses_per_query": "count",
	"buffercache.text.evictions":           "count",
	"buffercache.text.ghost_hits":          "count",
	"buffercache.text.hit_ratio":           "ratio",
	"buffercache.text.misses_per_query":    "count",
	"core.batch_mean":                      "obs/batch",
	"core.drain_lag_us":                    "us",
	"core.observe_us":                      "us",
	"core.publish_lag_us":                  "us",
	"core.staleness_max":                   "obs",
	"engine.evals_per_row":                 "count",
	"engine.guard_rejections":              "obs",
	"engine.plan_cost_per_row":             "count",
	"engine.query_us":                      "us",
	"engine.self_us":                       "us",
	"events.dropped":                       "events",
	"go.alloc_bytes_per_op":                "bytes",
	"go.gc_cycles":                         "cycles",
	"journal.append_lag_us":                "us",
	"loadgen.backlog_max":                  "obs",
	"loadgen.failed_ratio":                 "ratio",
	"loadgen.late_p99_us":                  "us",
	"loadgen.max_rate_ops_per_s":           "1/s",
	"loadgen.op_p99_us":                    "us",
	"loadgen.visible_p50_us":               "us",
	"loadgen.visible_p99_us":               "us",
	"minisql.parse_us":                     "us",
	"nettransport.dropped":                 "msgs",
	"nettransport.frames_damaged":          "frames",
	"nettransport.overflowed":              "msgs",
	"nettransport.reconnects":              "reconnects",
	"nettransport.wire_us":                 "us",
	"quadtree.allocs_per_predict":          "allocs/op",
	"quadtree.compress_us":                 "us",
	"quadtree.compressions":                "count",
	"quadtree.compressions_per_insert":     "ratio",
	"quadtree.insert_us":                   "us",
	"quadtree.memory_bytes":                "bytes",
	"quadtree.nodes":                       "count",
	"quadtree.predict_ns":                  "ns",
	"replica.apply_lag_us":                 "us",
	"replica.catchup_records":              "records",
	"replica.checkpoint_ms":                "ms",
	"replica.send_lag_us":                  "us",
	"spatialdb.eval_us":                    "us",
	"textdb.eval_us":                       "us",
	"trace.overhead_pct":                   "%",
	"udf.cpu_units_per_eval":               "count",
	"udf.io_pages_per_eval":                "count",
}

// set records a declared metric; an undeclared name is a bug.
func (m report) set(name string, v float64) {
	unit, ok := endToEnd[name]
	if !ok {
		unit, ok = perLayer[name]
	}
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

// fillBypassed sets every per-layer metric the run did not measure to 0.
func (m report) fillBypassed() {
	for name := range perLayer {
		if _, ok := m[name]; !ok {
			m.set(name, 0)
		}
	}
}

// options are one measured phase's settings.
type options struct {
	seed      int64
	seconds   float64
	traced    bool
	setupReps int
	// ladder makes ingest_fleet climb its rate ladder after the timed
	// phase (loadgen.max_rate_ops_per_s).
	ladder bool
}

// outcome is what one phase of a workload reports.
type outcome struct {
	e2e       report
	layer     report
	attempted int64
	failed    int64
	// checkErr is the first failed output check; a failed check fails the
	// run.
	checkErr error
	spans    *tracer
}

type workload func(options) (*outcome, error)

var workloads = map[string]workload{
	"udf_query":     runUDFQuery,
	"predict_serve": runPredictServe,
	"ingest_fleet":  runIngestFleet,
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Metrics   report `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: udf_query, predict_serve or ingest_fleet")
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

var errCheck = errors.New("output check failed")

func run(name string, seed int64, seconds float64, trace int) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if err := checkSourceTree(); err != nil {
		return err
	}
	stamp := environment(trace == 1)
	line, err := json.Marshal(map[string]any{"env": stamp, "workload": name, "seed": seed})
	if err != nil {
		return err
	}
	fmt.Println(string(line))

	var res result
	if trace == 0 {
		out, err := w(options{seed: seed, seconds: seconds, setupReps: 3})
		if err != nil {
			return err
		}
		res = result{Attempted: out.attempted, Failed: out.failed, Metrics: out.e2e, Correct: out.checkErr == nil}
		if out.checkErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: check:", out.checkErr)
		}
	} else {
		// Untraced phases bracket the traced one, so a host that drifts
		// during the run moves both sides of the overhead estimate alike.
		before, err := w(options{seed: seed, seconds: seconds / 4, setupReps: 1, ladder: true})
		if err != nil {
			return err
		}
		traced, err := w(options{seed: seed, seconds: seconds / 2, setupReps: 1, traced: true})
		if err != nil {
			return err
		}
		after, err := w(options{seed: seed, seconds: seconds / 4, setupReps: 1})
		if err != nil {
			return err
		}
		res = result{Metrics: traced.layer, Correct: true}
		for _, out := range []*outcome{before, traced, after} {
			res.Attempted += out.attempted
			res.Failed += out.failed
			if out.checkErr != nil {
				res.Correct = false
				fmt.Fprintln(os.Stderr, "perfbench: check:", out.checkErr)
			}
		}
		// Capacity probes run untraced; their metrics come from the first
		// phase.
		for k, m := range before.layer {
			if _, ok := res.Metrics[k]; !ok {
				res.Metrics[k] = m
			}
		}
		base := (before.e2e["ops_per_s"].Value + after.e2e["ops_per_s"].Value) / 2
		res.Metrics.set("trace.overhead_pct", 100*(base-traced.e2e["ops_per_s"].Value)/base)
		res.Metrics.fillBypassed()
		path, err := traced.spans.writeFile(name, seed, stamp)
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", k)
		}
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errCheck
	}
	return nil
}

// checkSourceTree refuses to run outside a checkout of the repository: the
// benchmark measures the program it was built from.
func checkSourceTree() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	return nil
}

// memSnap is the slice of runtime.MemStats the benchmark reports.
type memSnap struct {
	gc, mallocs, allocBytes uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{gc: uint64(ms.NumGC), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setGoMetrics records the Go runtime's per-phase figures.
func setGoMetrics(m report, before, after memSnap, ops int64) {
	m.set("go.gc_cycles", float64(after.gc-before.gc))
	m.set("go.alloc_bytes_per_op", float64(after.allocBytes-before.allocBytes)/float64(max(ops, 1)))
}

// percentile returns the nearest-rank p-quantile (0..1) of xs, 0 when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// chunk is how many consecutive samples a latency percentile is taken
// over: it leaves at least ten samples beyond the 99th percentile. A
// percentile is reported as the median over a phase's complete chunks, so
// a burst of interference moves one chunk, not the result; a phase with
// fewer than two chunks of samples is pooled.
const chunk = 1000

// chunked returns the median over complete chunks of xs of the p-quantile
// of each chunk.
func chunked(xs []float64, p float64) float64 {
	if len(xs) < 2*chunk {
		return percentile(xs, p)
	}
	var ps []float64
	for i := 0; i+chunk <= len(xs); i += chunk {
		ps = append(ps, percentile(xs[i:i+chunk], p))
	}
	return median(ps)
}

// chunkedRate is the median over complete chunks of samples of operations
// completed per second, each sample completing perSample operations at the
// offsets in ends; fewer than two chunks are pooled over elapsed.
func chunkedRate(ends []time.Duration, perSample float64, elapsed time.Duration) float64 {
	if len(ends) < 2*chunk {
		return float64(len(ends)) * perSample / elapsed.Seconds()
	}
	var rates []float64
	var prev time.Duration
	for i := chunk - 1; i < len(ends); i += chunk {
		rates = append(rates, chunk*perSample/(ends[i]-prev).Seconds())
		prev = ends[i]
	}
	return median(rates)
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(sum float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
