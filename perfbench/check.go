package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Benchmark is BENCHMARK.json.
type Benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []BoundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BoundedMetric is an end-to-end metric with the share of its median by
// which it may worsen.
type BoundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict is the judgement of one metric over one or two sets of runs.
type verdict struct {
	Spread1, Spread2   float64
	Median1, Median2   float64
	Worse              float64 // how much worse the second median is, as a share of the first
	SpreadOK, MedianOK bool
	Steady             bool // every spread below a third of the bound
}

// judge applies the acceptance rule to repeated runs of one workload:
// every metric's spread (IQR over median) must stay within its bound —
// except setup_s, whose spread is not judged — and the second set's
// median must not be worse than the first's by more than the bound.
// set2 may be nil, which judges spreads only.
func judge(m BoundedMetric, set1, set2 []float64) (verdict, error) {
	v := verdict{SpreadOK: true, MedianOK: true, Steady: true}
	sets := [][]float64{set1}
	if set2 != nil {
		sets = append(sets, set2)
	}
	for i, set := range sets {
		s, ok := spread(set)
		if !ok {
			return v, fmt.Errorf("%s: need at least two runs with a non-zero median", m.Name)
		}
		if i == 0 {
			v.Spread1, v.Median1 = s, median(set)
		} else {
			v.Spread2, v.Median2 = s, median(set)
		}
		if m.Name != "setup_s" {
			v.SpreadOK = v.SpreadOK && s <= m.Bound
			v.Steady = v.Steady && s < m.Bound/3
		}
	}
	if set2 != nil {
		v.Worse = (v.Median2 - v.Median1) / v.Median1
		if m.Better == "higher" {
			v.Worse = -v.Worse
		}
		v.MedianOK = v.Worse <= m.Bound
	}
	return v, nil
}

// runCheck is `perfbench check BENCHMARK.json RUNS1 [RUNS2]`: each RUNS
// file holds one result line per run of one workload.
func runCheck(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 || len(args) > 3 {
		fmt.Fprintln(stderr, "usage: perfbench check BENCHMARK.json RUNS1 [RUNS2]")
		return 2
	}
	var b Benchmark
	if err := readJSON(args[0], &b); err != nil {
		fmt.Fprintln(stderr, "perfbench check:", err)
		return 2
	}
	var sets []map[string][]float64
	for _, path := range args[1:] {
		s, err := readRuns(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench check:", err)
			return 2
		}
		sets = append(sets, s)
	}
	failed := false
	for _, m := range b.EndToEnd {
		var set2 []float64
		if len(sets) > 1 {
			set2 = sets[1][m.Name]
		}
		v, err := judge(m, sets[0][m.Name], set2)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench check:", err)
			return 1
		}
		status := "ok"
		switch {
		case !v.SpreadOK || !v.MedianOK:
			status, failed = "FAIL", true
		case !v.Steady:
			status = "noisy"
		}
		if set2 == nil {
			fmt.Fprintf(stdout, "%-14s bound %.2f  spread %.4f  median %.6g  %s\n",
				m.Name, m.Bound, v.Spread1, v.Median1, status)
			continue
		}
		fmt.Fprintf(stdout, "%-14s bound %.2f  spread %.4f %.4f  median %.6g %.6g  worse %+.4f  %s\n",
			m.Name, m.Bound, v.Spread1, v.Spread2, v.Median1, v.Median2, v.Worse, status)
	}
	if failed {
		return 1
	}
	return 0
}

// readRuns collects each metric's values from a file of result lines,
// rejecting runs that were not correct.
func readRuns(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r Result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s:%d: run was not correct", path, n)
		}
		for name, m := range r.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out, sc.Err()
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
