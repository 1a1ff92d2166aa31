package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// boundedMetric is one row of -compare: which way the metric is better
// and how far its median may worsen, as a share of the base's.
type boundedMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
}

// failedFrac is compared like an end-to-end metric, but a rise counts
// only if it is also more than failedFracFloor of everything attempted:
// on a lossless workload the fraction is a few missed deadlines in ten
// million operations, and a tenth more of that is nothing.
var failedFrac = boundedMetric{Name: "failed_frac", Better: "lower", Bound: 0.10}

const failedFracFloor = 0.005

// readResults loads the untraced runs of a results file: workload ->
// metric -> one value per run.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r runOutput
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: an invalid run of %s (seed %d) cannot be compared", path, r.Workload, r.Seed)
		}
		m := out[r.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[r.Workload] = m
		}
		for name, v := range r.Metrics {
			m[name] = append(m[name], v.Value)
		}
		m["failed_frac"] = append(m["failed_frac"], r.FailedFrac)
	}
	return out, sc.Err()
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, b's as a ratio of a's (a is the base), both spreads
// (interquartile distance over median, as the driver takes it), the
// bound and a verdict:
//
//	same        b's median is within the bound of a's
//	worse       b's median is worse than a's by more than the bound
//	unresolved  not worse, but a side's spread is wider than the bound,
//	            so "same" cannot be told from "slightly worse"
//
// It reports worse if any row is, or if failed_frac rose.
func compareFiles(out io.Writer, specPath, aPath, bPath string) (worse bool, err error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	spec.EndToEnd = append(spec.EndToEnd, failedFrac)
	a, err := readResults(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResults(bPath)
	if err != nil {
		return false, err
	}

	fmt.Fprintf(out, "base a = %s, b = %s; ratio = b/a\n", aPath, bPath)
	fmt.Fprintf(out, "%-16s %-20s %14s %14s %8s %9s %9s %6s  %s\n",
		"workload", "metric", "median a", "median b", "ratio", "spread a", "spread b", "bound", "verdict")
	for _, w := range workloads {
		ma, mb := a[w.name], b[w.name]
		if ma == nil || mb == nil {
			if ma != nil || mb != nil {
				return false, fmt.Errorf("workload %s is in only one of the files", w.name)
			}
			continue
		}
		for _, d := range spec.EndToEnd {
			va, vb := ma[d.Name], mb[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s: metric %s is missing from a file", w.name, d.Name)
			}
			medA, medB := median(va), median(vb)
			loss := medB - medA // how much worse b is, in the metric's unit
			if d.Better == "higher" {
				loss = -loss
			}
			floor := 1e-12 // a difference below the floor is no difference
			if d == failedFrac {
				floor = failedFracFloor
			}
			wide := func(v []float64) bool {
				return spread(v) > d.Bound && spread(v)*math.Abs(median(v)) > floor
			}
			verdict := "same"
			switch {
			case loss > d.Bound*math.Abs(medA) && loss > floor:
				verdict = "worse"
				worse = true
			case wide(va) || wide(vb):
				verdict = "unresolved"
			}
			ratio := 1.0
			if medA != 0 {
				ratio = medB / medA
			}
			fmt.Fprintf(out, "%-16s %-20s %14.4f %14.4f %8.4f %9.4f %9.4f %6.2f  %s\n",
				w.name, d.Name, medA, medB, ratio, spread(va), spread(vb), d.Bound, verdict)
		}
	}
	return worse, nil
}
