package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// minPairs is the fewest parent/change pairs a comparison accepts.
const minPairs = 10

// specMetric is one end-to-end metric as BENCHMARK.json describes it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the comparison and calibration
// modes need.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readResults reads the result lines of a file in order, skipping every
// line that is not a result, so whole run outputs can be concatenated.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var r result
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Metrics != nil {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// verdict is the comparison of one metric across the pairs.
type verdict struct {
	parent, chg [3]float64 // quartiles
	wins, pairs int
	label       string
}

// judge applies the pairing rules to one metric's values, parent[i]
// paired with change[i]. A gain needs the change to win at least nine
// tenths of the pairs and the medians to differ by more than the
// parent's interquartile range; a regression is a change median worse
// than the parent's by more than the bound; a spread wider than the bound
// leaves the metric unresolved unless every change run beats every
// parent run.
func judge(m specMetric, parent, change []float64) verdict {
	v := verdict{pairs: min(len(parent), len(change))}
	parent, change = parent[:v.pairs], change[:v.pairs]
	better := func(c, p float64) bool { return c < p }
	if m.Better == "higher" {
		better = func(c, p float64) bool { return c > p }
	}
	for i := range parent {
		if better(change[i], parent[i]) {
			v.wins++
		}
	}
	v.parent[0], v.parent[1], v.parent[2] = quartiles(parent)
	v.chg[0], v.chg[1], v.chg[2] = quartiles(change)
	parentSpread := (v.parent[2] - v.parent[0]) / math.Abs(v.parent[1])
	changeSpread := (v.chg[2] - v.chg[0]) / math.Abs(v.chg[1])

	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	medBetter := better(v.chg[1], v.parent[1])
	worse := !medBetter && math.Abs(v.chg[1]-v.parent[1]) > m.Bound*math.Abs(v.parent[1])
	switch {
	case medBetter && 10*v.wins >= 9*v.pairs && math.Abs(v.chg[1]-v.parent[1]) > v.parent[2]-v.parent[0]:
		v.label = "gain"
	case worse:
		v.label = "regression"
	case (parentSpread > m.Bound || changeSpread > m.Bound) && !allBetter:
		v.label = "unresolved"
	default:
		v.label = "within bound"
	}
	return v
}

// compareFiles compares every end-to-end metric of two result files of
// one workload, parent first, pairing their results in order. Each metric
// is held to its calibrated bound on that workload, or to its
// BENCHMARK.json bound when the calibration has none.
func compareFiles(s *spec, cal *calibration, workload, parentPath, changePath string, w io.Writer) error {
	parent, err := readResults(parentPath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	n := min(len(parent), len(change))
	if n < minPairs {
		return fmt.Errorf("%d pairs; a comparison needs at least %d", n, minPairs)
	}
	// A gain does not count when the change fails more operations.
	parentFailed, changeFailed := 0, 0
	for i := 0; i < n; i++ {
		parentFailed += parent[i].Failed
		changeFailed += change[i].Failed
	}
	fmt.Fprintf(w, "# %s: %d pairs; failed operations: parent %d, change %d\n", workload, n, parentFailed, changeFailed)
	fmt.Fprintf(w, "%-18s %-10s %-32s %-32s %-9s %-6s %s\n", "metric", "unit", "parent p50 [q1, q3]", "change p50 [q1, q3]", "wins", "bound", "verdict")
	for _, m := range s.EndToEnd {
		if b, ok := cal.workloadBound(m.Name, workload); ok {
			m.Bound = b
		}
		var pv, cv []float64
		for i := 0; i < n; i++ {
			p, okP := parent[i].Metrics[m.Name]
			c, okC := change[i].Metrics[m.Name]
			if !okP || !okC {
				return fmt.Errorf("pair %d lacks metric %s", i+1, m.Name)
			}
			pv, cv = append(pv, p.Value), append(cv, c.Value)
		}
		v := judge(m, pv, cv)
		if changeFailed > parentFailed && v.label == "gain" {
			v.label = "gain void: more failed operations"
		}
		fmt.Fprintf(w, "%-18s %-10s %-32s %-32s %3d/%-5d %-6.2f %s\n", m.Name, m.Unit,
			fmt.Sprintf("%.5g [%.5g, %.5g]", v.parent[1], v.parent[0], v.parent[2]),
			fmt.Sprintf("%.5g [%.5g, %.5g]", v.chg[1], v.chg[0], v.chg[2]),
			v.wins, v.pairs, m.Bound, v.label)
	}
	return nil
}
