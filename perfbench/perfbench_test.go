package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The workloads write under .bench_build relative to the working directory
// and run.sh starts them from the repository root; the tests do the same.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type rationaleJSON struct {
	ExactRepeat []string                   `json:"exact_repeat"`
	Workloads   map[string]json.RawMessage `json:"workloads"`
	EndToEnd    map[string]string          `json:"end_to_end"`
	PerLayer    map[string]struct {
		Workloads []string `json:"workloads"`
	} `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// short runs: a fraction of a second per phase (udf_query still runs its
// whole count window).
func shortOptions(seed int64) options {
	return options{seed: seed, seconds: 0.3, setupReps: 1}
}

// TestWorkloads runs every workload untraced twice and traced once on one
// seed. The output checks must pass, the exact-repeat counts must match
// across all three runs (tracing must not change what the program does),
// and the reported metrics must be exactly the ones BENCHMARK.json declares,
// with its units.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	var bench benchmarkJSON
	var why rationaleJSON
	readJSON(t, "BENCHMARK.json", &bench)
	readJSON(t, "perfbench/rationale.json", &why)

	for _, wl := range bench.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			w := workloads[wl.Name]
			if w == nil {
				t.Fatalf("BENCHMARK.json names unknown workload %s", wl.Name)
			}
			o := shortOptions(5)
			o.ladder = true
			plain, err := w(o)
			if err != nil {
				t.Fatal(err)
			}
			again, err := w(shortOptions(5))
			if err != nil {
				t.Fatal(err)
			}
			o = shortOptions(5)
			o.traced = true
			traced, err := w(o)
			if err != nil {
				t.Fatal(err)
			}
			for _, out := range []*outcome{plain, again, traced} {
				if out.checkErr != nil {
					t.Errorf("output check: %v", out.checkErr)
				}
			}

			for _, name := range why.ExactRepeat {
				m, ok := plain.e2e[name]
				other, tm := again.e2e[name], traced.e2e[name]
				if !ok {
					m, ok = plain.layer[name]
					other, tm = again.layer[name], traced.layer[name]
				}
				if !ok {
					continue // a layer this workload bypasses
				}
				if m.Value != other.Value || m.Value != tm.Value {
					t.Errorf("%s does not repeat: %v, %v, traced %v", name, m.Value, other.Value, tm.Value)
				}
			}

			for k := range plain.e2e {
				if _, ok := endToEnd[k]; !ok {
					t.Errorf("end-to-end report carries %s", k)
				}
			}
			for k := range endToEnd {
				if _, ok := plain.e2e[k]; !ok {
					t.Errorf("end-to-end metric %s not reported", k)
				}
			}
			// Each per-layer metric is measured on the workloads the
			// rationale names for it.
			for name, r := range why.PerLayer {
				for _, target := range r.Workloads {
					_, inPlain := plain.layer[name]
					_, inTraced := traced.layer[name]
					if target == wl.Name && !inPlain && !inTraced && name != "trace.overhead_pct" {
						t.Errorf("per-layer %s is not measured on %s", name, wl.Name)
					}
				}
			}
			for k, m := range plain.e2e {
				if m.Value == 0 {
					t.Errorf("end-to-end metric %s reads 0", k)
				}
			}
		})
	}

	checkDeclared(t, "end_to_end", bench.EndToEnd, endToEnd)
	checkDeclared(t, "per_layer", bench.PerLayer, perLayer)

	// The rationale covers every declared workload and metric.
	var names, covered []string
	for _, wl := range bench.Workloads {
		names = append(names, wl.Name)
	}
	for k := range why.Workloads {
		covered = append(covered, k)
	}
	sameSet(t, "rationale workloads", names, covered)
	names, covered = nil, nil
	for _, m := range bench.EndToEnd {
		names = append(names, m.Name)
	}
	for k := range why.EndToEnd {
		covered = append(covered, k)
	}
	sameSet(t, "rationale end_to_end", names, covered)
	names, covered = nil, nil
	for _, m := range bench.PerLayer {
		names = append(names, m.Name)
	}
	for k := range why.PerLayer {
		covered = append(covered, k)
	}
	sameSet(t, "rationale per_layer", names, covered)
	for _, m := range bench.PerLayer {
		exact := false
		for _, n := range why.ExactRepeat {
			exact = exact || n == m.Name
		}
		if exact != (m.Unit == "count") {
			t.Errorf("per-layer %s has unit %s; unit count is reserved for exact-repeat counts", m.Name, m.Unit)
		}
	}
}

// checkDeclared compares BENCHMARK.json's metric list with the code's.
func checkDeclared(t *testing.T, kind string, decl []metricDecl, got map[string]string) {
	t.Helper()
	var want, have []string
	for _, d := range decl {
		want = append(want, d.Name)
		if unit, ok := got[d.Name]; ok && unit != d.Unit {
			t.Errorf("%s metric %s: unit %s, BENCHMARK.json says %s", kind, d.Name, unit, d.Unit)
		}
	}
	for k := range got {
		have = append(have, k)
	}
	sameSet(t, kind, want, have)
}

func sameSet(t *testing.T, what string, want, got []string) {
	t.Helper()
	w, g := map[string]bool{}, map[string]bool{}
	for _, s := range want {
		w[s] = true
	}
	for _, s := range got {
		g[s] = true
	}
	for _, s := range want {
		if !g[s] {
			t.Errorf("%s: %s declared but missing", what, s)
		}
	}
	for _, s := range got {
		if !w[s] {
			t.Errorf("%s: %s present but not declared", what, s)
		}
	}
}
