// Command experiments regenerates the paper's tables and figures, as
// formatted text or as structured JSON. GOMAXPROCS=1 runs one simulation
// at a time.
//
// Usage:
//
//	experiments -exp all|fig8|fig9|table1|table2|table3|ablation|dist \
//	            [-insts 2000000] [-bench 164.gzip,176.gcc] [-json] [-store DIR]
//
// The grid figures (fig8, fig9, table3) share one result store, keyed by
// each cell's run content key: in memory by default, so -exp all runs each
// cell once; on disk under -store DIR, so a later run against the same
// directory simulates only the cells it has not seen and prints the same
// bytes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"streamfetch"
	"streamfetch/internal/experiments"
	"streamfetch/internal/store"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig8, fig9, table1, table2, table3, ablation, dist")
	insts := flag.Uint64("insts", 2_000_000, "dynamic trace length per benchmark")
	benchList := flag.String("bench", "", "comma-separated benchmark subset (default: all 11)")
	asJSON := flag.Bool("json", false, "emit the experiments as a JSON array instead of text")
	storeDir := flag.String("store", "", "directory of a result store that keeps grid cells across runs (default: in memory)")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.TraceInsts = *insts
	cfg.TrainInsts = *insts
	if *benchList != "" {
		cfg.Benchmarks = strings.Split(*benchList, ",")
	}

	if *exp == "table2" {
		if *asJSON {
			emitJSON([]*streamfetch.Experiment{experiments.Table2Data()})
		} else {
			experiments.Table2Data().WriteText(os.Stdout)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	fmt.Fprintf(os.Stderr, "preparing %s benchmarks (%d instructions each)...\n",
		benchCount(cfg), cfg.TraceInsts)
	benches, err := experiments.Prepare(ctx, cfg)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "prepared in %v\n\n", time.Since(start).Round(time.Millisecond))

	// Each producer computes one batch of experiments; text mode renders
	// a batch as soon as it is ready, JSON mode collects everything into
	// one array.
	type producer func() ([]*streamfetch.Experiment, error)
	one := func(f func() (*streamfetch.Experiment, error)) producer {
		return func() ([]*streamfetch.Experiment, error) {
			e, err := f()
			if err != nil {
				return nil, err
			}
			return []*streamfetch.Experiment{e}, nil
		}
	}
	table2 := one(func() (*streamfetch.Experiment, error) { return experiments.Table2Data(), nil })
	table1 := one(func() (*streamfetch.Experiment, error) { return experiments.Table1Data(benches) })
	// One result cache: every fig9 and table3 cell is a fig8 cell.
	var cells store.Store = store.NewMem()
	if *storeDir != "" {
		fs, err := store.Open(*storeDir)
		if err != nil {
			fail(err)
		}
		defer fs.Close()
		before, err := fs.Stats()
		if err != nil {
			fail(err)
		}
		defer func() {
			if after, err := fs.Stats(); err == nil {
				fmt.Fprintf(os.Stderr, "store %s: %d cells added\n", *storeDir, after.Blobs-before.Blobs)
			}
		}()
		cells = fs
	}
	fig8 := func() ([]*streamfetch.Experiment, error) { return experiments.Fig8Data(ctx, cfg, cells) }
	fig9 := one(func() (*streamfetch.Experiment, error) { return experiments.Fig9Data(ctx, cfg, cells) })
	table3 := one(func() (*streamfetch.Experiment, error) { return experiments.Table3Data(ctx, cfg, cells) })
	ablation := one(func() (*streamfetch.Experiment, error) { return experiments.AblationData(ctx, benches, cfg) })
	dist := one(func() (*streamfetch.Experiment, error) { return experiments.DistributionData(benches) })

	var producers []producer
	switch *exp {
	case "all":
		producers = []producer{table2, table1, fig8, fig9, table3, ablation, dist}
	case "fig8":
		producers = []producer{fig8}
	case "fig9":
		producers = []producer{fig9}
	case "table1":
		producers = []producer{table1}
	case "table3":
		producers = []producer{table3}
	case "ablation":
		producers = []producer{ablation}
	case "dist":
		producers = []producer{dist}
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	var exps []*streamfetch.Experiment
	for _, p := range producers {
		batch, err := p()
		if err != nil {
			fail(err)
		}
		for _, e := range batch {
			if !*asJSON {
				if len(exps) > 0 {
					fmt.Println()
				}
				e.WriteText(os.Stdout)
			}
			exps = append(exps, e)
		}
	}
	if *asJSON {
		emitJSON(exps)
	}
	fmt.Fprintf(os.Stderr, "\ntotal %v\n", time.Since(start).Round(time.Millisecond))
}

// fail reports a fatal error; an interrupt exits with the conventional 130.
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	if errors.Is(err, context.Canceled) {
		os.Exit(130)
	}
	os.Exit(1)
}

// emitJSON writes the experiments to stdout as one JSON array.
func emitJSON(exps []*streamfetch.Experiment) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(exps); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func benchCount(cfg experiments.Config) string {
	if cfg.Benchmarks == nil {
		return fmt.Sprint(len(streamfetch.Benchmarks()))
	}
	return fmt.Sprint(len(cfg.Benchmarks))
}
