package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// The smoke test asserts structure only — every named metric present
// with its unit, the correctness gate passing, the trace file
// parsing, the contract file matching the program's tables — and
// never a timing: it runs for a fraction of a second per phase, at a
// tenth of the open-loop rates so the race detector's slowdown cannot
// turn a sustainable rate into an overload.

// smokeConfig keeps what a run writes (trace file, WAL) inside the
// benchmark's own ignored out directory.
func smokeConfig(t *testing.T, trace bool) runConfig {
	if err := os.MkdirAll("out", 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp("out", "smoke-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return runConfig{seed: 7, seconds: 2, interval: 200 * time.Millisecond, trace: trace, outDir: dir, setups: 2, load: 4000}
}

func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w.scaled(0.1)
		for _, trace := range []bool{false, true} {
			name, table := w.name+"/untraced", endToEnd
			if trace {
				name, table = w.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				out, err := runWorkload(w, smokeConfig(t, trace))
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range out.Problems {
					t.Errorf("correctness check failed: %s", p)
				}
				if out.Attempted == 0 {
					t.Error("nothing was attempted")
				}
				if len(out.Metrics) != len(table) {
					t.Errorf("%d metrics reported, the table names %d", len(out.Metrics), len(table))
				}
				for _, d := range table {
					m, ok := out.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s is missing", d.name)
					} else if m.Unit != d.unit {
						t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
				if trace {
					checkTraceFile(t, out.TraceFile)
				}
			})
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		SelfTimeUs map[string]float64 `json:"self_time_us"`
		Spans      []span             `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.Spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	names := map[string]bool{}
	for _, s := range doc.Spans {
		names[s.Name] = true
	}
	for _, s := range doc.Spans {
		if s.Parent != "" && !names[s.Parent] {
			t.Fatalf("span %s (id %d) names a parent %q that no span has", s.Name, s.ID, s.Parent)
		}
		if _, ok := doc.SelfTimeUs[s.Name]; !ok {
			t.Fatalf("span %s has no self time", s.Name)
		}
	}
	for _, root := range []string{"update", "txn"} {
		if !names[root] {
			t.Errorf("%s holds no %q span", path, root)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := makeInputs(w, 42), makeInputs(w, 42), makeInputs(w, 43)
		if a.digest != b.digest {
			t.Errorf("%s: seed 42 gave digests %s and %s", w.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 42 and 43 gave the same digest", w.name)
		}
	}
}

// TestContractMatchesTables holds BENCHMARK.json and the program's
// workload and metric tables equal, name for name and unit for unit.
func TestContractMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("contract names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in the contract, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("contract names %d %s metrics, the program has %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d is %s [%s] in the contract, %s [%s] in the program", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd)
	same("per-layer", spec.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
