package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The regression bounds come from calibration runs: sets of runs of every
// workload on one commit, each run on its own seed, kept as files of
// labelled result lines in calibrationGlob.
//
//   - A metric's bound on one workload, which --compare applies, is the
//     larger of 5% and twice the widest relative interquartile range the
//     metric showed on that workload in any set.
//   - Its bound in BENCHMARK.json, which covers every workload at once, is
//     the larger of 5% and three times that range on the noisiest
//     workload, so every spread sits below a third of it, but at most
//     25%. setup_s, whose spread is not held to its bound, takes 25%.
//
// Both round up to a whole percent.
const (
	calibrationGlob = "perfbench/calibration/*.jsonl"
	minBound        = 0.05
	maxBound        = 0.25
	minCalRuns      = 5
)

// calRecord is one calibration run: its result line, the workload and
// seed that produced it, and how long the run took.
type calRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	WallS    float64 `json:"wall_s"`
	Result   result  `json:"result"`
}

// calibration holds the values of every metric, by workload, in each
// calibration set.
type calibration struct {
	sets []string
	// vals[metric][workload][set] lists the set's values in run order.
	vals map[string]map[string][][]float64
	wall map[string][]float64 // workload → seconds each run took
}

// readCalibration reads one calibration set per path.
func readCalibration(paths []string) (*calibration, error) {
	c := &calibration{vals: map[string]map[string][][]float64{}, wall: map[string][]float64{}}
	for i, path := range paths {
		c.sets = append(c.sets, filepath.Base(path))
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for line := 1; sc.Scan(); line++ {
			var r calRecord
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s:%d: %w", path, line, err)
			}
			c.wall[r.Workload] = append(c.wall[r.Workload], r.WallS)
			for name, m := range r.Result.Metrics {
				byW := c.vals[name]
				if byW == nil {
					byW = map[string][][]float64{}
					c.vals[name] = byW
				}
				for len(byW[r.Workload]) <= i {
					byW[r.Workload] = append(byW[r.Workload], nil)
				}
				byW[r.Workload][i] = append(byW[r.Workload][i], m.Value)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return c, nil
}

// loadCalibration reads every calibration set the repository keeps; none
// is no error.
func loadCalibration(pattern string) (*calibration, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	return readCalibration(paths)
}

// spread is the relative interquartile range of xs.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

// widest is the widest spread of a metric on a workload over the sets, and
// the largest shift of a set's median from the first set's, as a share of
// it; ok is false when a set has fewer than minCalRuns runs of it.
func (c *calibration) widest(metric, workload string) (sp, shift float64, ok bool) {
	sets := c.vals[metric][workload]
	if len(sets) < len(c.sets) || len(sets) == 0 {
		return 0, 0, false
	}
	first := median(sets[0])
	for _, xs := range sets {
		if len(xs) < minCalRuns {
			return 0, 0, false
		}
		sp = max(sp, spread(xs))
		shift = max(shift, math.Abs(median(xs)-first)/math.Abs(first))
	}
	return sp, shift, true
}

func roundUp(x float64) float64 { return math.Ceil(x*100-1e-9) / 100 }

// workloadBound is the bound --compare applies to metric on workload; ok
// is false without calibration data for the pair.
func (c *calibration) workloadBound(metric, workload string) (float64, bool) {
	sp, _, ok := c.widest(metric, workload)
	if !ok {
		return 0, false
	}
	return min(maxBound, roundUp(max(minBound, 2*sp))), true
}

// benchmarkBound is metric's bound across every workload listed, the one
// BENCHMARK.json records.
func (c *calibration) benchmarkBound(metric string, workloads []string) (float64, error) {
	if metric == "setup_s" {
		return maxBound, nil
	}
	b := minBound
	for _, w := range workloads {
		sp, _, ok := c.widest(metric, w)
		if !ok {
			return 0, fmt.Errorf("%s on %s: fewer than %d calibration runs in some set", metric, w, minCalRuns)
		}
		b = max(b, 3*sp)
	}
	return min(maxBound, roundUp(b)), nil
}

// printBounds prints, for every end-to-end metric and workload, each
// calibration set's median and spread, the shift between the sets'
// medians and the bounds derived from them, and flags every spread wider
// than a third of its bound. It fails when a spread other than setup_s's
// is wider than the bound or two sets' medians differ by more than it.
func printBounds(s *spec, c *calibration, w io.Writer) error {
	fmt.Fprintf(w, "# %d calibration sets: %s\n", len(c.sets), strings.Join(c.sets, ", "))
	var walls []string
	for _, wl := range specWorkloads(s) {
		if xs := c.wall[wl]; len(xs) > 0 {
			walls = append(walls, fmt.Sprintf("%s %.1f", wl, median(xs)))
		}
	}
	fmt.Fprintf(w, "# median seconds a run took: %s\n", strings.Join(walls, ", "))
	fmt.Fprintf(w, "%-18s %-13s %-40s %-7s %-14s %s\n", "metric", "workload", "median [spread] per set", "shift", "workload bound", "benchmark bound")
	var problems []string
	for _, m := range s.EndToEnd {
		bb, err := c.benchmarkBound(m.Name, specWorkloads(s))
		if err != nil {
			return err
		}
		for _, wl := range specWorkloads(s) {
			var cells []string
			for _, xs := range c.vals[m.Name][wl] {
				cells = append(cells, fmt.Sprintf("%.4g [%.3f]", median(xs), spread(xs)))
			}
			sp, shift, _ := c.widest(m.Name, wl)
			wb, _ := c.workloadBound(m.Name, wl)
			note := ""
			switch {
			case m.Name != "setup_s" && sp > bb:
				problems = append(problems, fmt.Sprintf("%s on %s: spread %.3f, bound %.2f", m.Name, wl, sp, bb))
			case m.Name != "setup_s" && 3*sp > bb:
				note = "  spread above a third of the bound"
			}
			if shift > bb {
				problems = append(problems, fmt.Sprintf("%s on %s: set medians differ by %.3f, bound %.2f", m.Name, wl, shift, bb))
			}
			fmt.Fprintf(w, "%-18s %-13s %-40s %-7.3f %-14.2f %.2f%s\n", m.Name, wl, strings.Join(cells, "  "), shift, wb, bb, note)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("calibration does not support the bounds: %s", strings.Join(problems, "; "))
	}
	return nil
}

// calibrate runs every workload runs times in child processes of this
// binary, on seeds firstSeed upwards, and appends each labelled result
// line to out.
func calibrate(s *spec, out string, firstSeed uint64, runs int, progress io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.OpenFile(out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, wl := range specWorkloads(s) {
		for i := range runs {
			seed := firstSeed + uint64(i)
			start := time.Now()
			cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(s.RunSeconds), "--trace", "0")
			cmd.Stderr = progress
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			rec := calRecord{Workload: wl, Seed: seed, WallS: time.Since(start).Seconds()}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", wl, seed, err)
			}
			line, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(f, "%s\n", line); err != nil {
				return err
			}
			fmt.Fprintf(progress, "perfbench: calibrate %s seed %d: %.1fs\n", wl, seed, rec.WallS)
		}
	}
	return f.Close()
}

// specWorkloads lists the workload names BENCHMARK.json gives, in order.
func specWorkloads(s *spec) []string {
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}
