package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden exposition file")

// goldenRegistry builds a registry with one metric of every shape —
// unlabeled, labeled, escaped, func-backed, histogram — with fixed values,
// so the rendered exposition is byte-stable.
func goldenRegistry() *Registry {
	r := New()
	r.Counter("mlq_quadtree_inserts_total", "data points inserted", L("model", "WIN")).Store(128)
	r.Counter("mlq_quadtree_inserts_total", "data points inserted", L("model", "SIMPLE")).Store(64)
	g := r.Gauge("mlq_quadtree_memory_utilization", "memory used / memory limit", L("model", "WIN"))
	g.Set(0.75)
	r.Gauge("mlq_engine_breaker_open", "breaker state").Set(1)
	// A label value exercising every escape: backslash, quote, newline.
	r.Counter("mlq_engine_evaluations_total", "UDF executions",
		L("udf", "we\\ird\"name\nhere")).Store(3)
	r.GaugeFunc("mlq_model_nae", "rolling NAE", func() float64 { return 0.125 }, L("model", "MLQ-E"))
	h := r.Histogram("mlq_quadtree_compress_seconds", "compression pass durations", L("model", "WIN"))
	for _, v := range []float64{0.001, 0.001, 0.004, 0.25, 1e12} { // 1e12 overflows
		h.Observe(v)
	}
	return r
}

func TestPrometheusGolden(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("exposition drifted from golden (re-run with -update if intended)\ngot:\n%s\nwant:\n%s", b.Bytes(), want)
	}
}

func TestPrometheusDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	r := goldenRegistry()
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of an unchanged registry differ")
	}
}

// TestHistogramCumulativity parses the rendered _bucket series and checks the
// text-format invariants: le values strictly increasing, cumulative counts
// non-decreasing, and the +Inf bucket equal to _count.
func TestHistogramCumulativity(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var les []float64
	var cums []int64
	var count int64 = -1
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "mlq_quadtree_compress_seconds_bucket"):
			le := line[strings.Index(line, `le="`)+4:]
			le = le[:strings.Index(le, `"`)]
			v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			if le == "+Inf" {
				les = append(les, positiveInf())
			} else {
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("parsing le %q: %v", le, err)
				}
				les = append(les, f)
			}
			cums = append(cums, v)
		case strings.HasPrefix(line, "mlq_quadtree_compress_seconds_count"):
			v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			count = v
		}
	}
	if len(cums) < 2 {
		t.Fatalf("expected multiple buckets, got %d", len(cums))
	}
	for i := 1; i < len(cums); i++ {
		if les[i] <= les[i-1] {
			t.Errorf("le not increasing at %d: %v", i, les)
		}
		if cums[i] < cums[i-1] {
			t.Errorf("cumulative count decreased at %d: %v", i, cums)
		}
	}
	if count != 5 {
		t.Errorf("_count = %d, want 5", count)
	}
	if cums[len(cums)-1] != count {
		t.Errorf("+Inf bucket %d != _count %d", cums[len(cums)-1], count)
	}
}

func positiveInf() float64 {
	inf, _ := strconv.ParseFloat("+Inf", 64)
	return inf
}

// TestJSONGolden pins the full /metrics.json shape byte-for-byte, including
// the _meta scrape header: the timestamp comes from an injected FakeClock and
// the publisher epoch is the max across the mlq_publisher_epoch series.
func TestJSONGolden(t *testing.T) {
	r := goldenRegistry()
	fc := &FakeClock{}
	fc.Set(time.Unix(1700000000, 0))
	r.SetClock(fc)
	r.Gauge("mlq_publisher_epoch", "generation number", L("udf", "WIN")).Set(7)
	r.Gauge("mlq_publisher_epoch", "generation number", L("udf", "COVER")).Set(3)
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("JSON exposition drifted from golden (re-run with -update if intended)\ngot:\n%s\nwant:\n%s", b.Bytes(), want)
	}
}

// TestJSONMeta checks the _meta semantics directly: the scrape timestamp
// tracks the registry clock, and the epoch is 0 when no publisher series
// exists.
func TestJSONMeta(t *testing.T) {
	r := New()
	fc := &FakeClock{}
	fc.Set(time.Unix(42, 0))
	r.SetClock(fc)
	decode := func() map[string]any {
		t.Helper()
		var b bytes.Buffer
		if err := r.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		if err := json.Unmarshal(b.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		meta, ok := out["_meta"].(map[string]any)
		if !ok {
			t.Fatalf("no _meta object:\n%s", b.String())
		}
		return meta
	}
	meta := decode()
	if got := int64(meta["scraped_at_unix_nano"].(float64)); got != time.Unix(42, 0).UnixNano() {
		t.Errorf("scraped_at_unix_nano = %d, want %d", got, time.Unix(42, 0).UnixNano())
	}
	if got := meta["publisher_epoch"].(float64); got != 0 {
		t.Errorf("publisher_epoch = %g, want 0 with no publisher series", got)
	}
	fc.Advance(time.Second)
	r.Gauge("mlq_publisher_epoch", "generation number", L("udf", "a")).Set(12)
	meta = decode()
	if got := int64(meta["scraped_at_unix_nano"].(float64)); got != time.Unix(43, 0).UnixNano() {
		t.Errorf("scraped_at_unix_nano = %d after Advance, want %d", got, time.Unix(43, 0).UnixNano())
	}
	if got := meta["publisher_epoch"].(float64); got != 12 {
		t.Errorf("publisher_epoch = %g, want 12", got)
	}
}

func TestJSONExposition(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(b.Bytes(), &out); err != nil {
		t.Fatalf("JSON exposition does not parse: %v\n%s", err, b.String())
	}
	if v, ok := out[`mlq_quadtree_inserts_total{model="WIN"}`]; !ok || v.(float64) != 128 {
		t.Errorf("counter series missing or wrong: %v", v)
	}
	hv, ok := out[`mlq_quadtree_compress_seconds{model="WIN"}`]
	if !ok {
		t.Fatalf("histogram series missing:\n%s", b.String())
	}
	hist := hv.(map[string]any)
	if hist["count"].(float64) != 5 {
		t.Errorf("histogram count = %v, want 5", hist["count"])
	}
	// NaN/Inf scalars render as strings.
	r := New()
	r.Gauge("mlq_test_bad", "").Set(positiveInf())
	b.Reset()
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"mlq_test_bad": "+Inf"`) {
		t.Errorf("non-finite scalar not stringified:\n%s", b.String())
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:   "0",
		1.5: "1.5",
		-2:  "-2",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatValue(positiveInf()); got != "+Inf" {
		t.Errorf("formatValue(+Inf) = %q", got)
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := escapeLabel("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Errorf("escapeLabel = %q", got)
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := goldenRegistry()
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := r.WritePrometheus(&buf); err != nil {
			b.Fatal(err)
		}
	}
	_ = fmt.Sprint(buf.Len())
}
