// Command tracegen generates benchmark traces and writes them in the binary
// trace format, or inspects existing trace files. It drives the public
// streamfetch session API.
//
// Traces are always encoded as they are generated — constant memory at any
// length, the paper's 300M-instruction scale and beyond — and carry the
// STRMTRC2 chunk index: replays size their plans from it without a
// pre-scan, and sharded, sampled and cold-shard replays seek straight to
// their intervals instead of decoding everything before them. A replay or
// -inspect refuses a file without a valid index (an older index-less or
// STRMTRC1 file, or one whose index was clipped): re-record it here.
//
// Usage:
//
//	tracegen -bench 164.gzip -insts 2000000 -o gzip.trc
//	tracegen -bench 176.gcc -insts 300000000 -o gcc.trc
//	tracegen -inspect gzip.trc
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"streamfetch"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		// After the first interrupt cancels the context (which stops an
		// export), restore the default handler so a second Ctrl-C kills
		// the process even mid-generation.
		<-ctx.Done()
		stop()
	}()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command minus process concerns (signals, exit), so
// tests drive it with flag slices and buffers instead of spawning the
// binary. It returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "164.gzip", "benchmark name")
	insts := fs.Uint64("insts", 2_000_000, "dynamic instructions")
	seed := fs.Uint64("seed", 99, "branch behaviour seed (input selection)")
	out := fs.String("o", "", "output trace file")
	inspect := fs.String("inspect", "", "print a summary of an existing trace file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *inspect != "" {
		info, err := streamfetch.InspectTraceFile(*inspect)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		printInfo(stdout, "trace", info)
		return 0
	}

	if *out == "" {
		fmt.Fprintln(stderr, "missing -o output file")
		return 2
	}

	session := streamfetch.New(*bench,
		streamfetch.WithInstructions(*insts),
		streamfetch.WithSeed(*seed),
	)

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// Blocks flow straight from the seeded CFG walk into the encoder,
	// which records the chunk index from the session's program.
	info, err := session.WriteTrace(ctx, f)
	if err != nil {
		f.Close()
		os.Remove(*out)
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printInfo(stdout, fmt.Sprintf("wrote %s:", *out), info)
	return 0
}

func printInfo(w io.Writer, prefix string, info streamfetch.TraceInfo) {
	fmt.Fprintf(w, "%s %s\n", prefix, info.Name)
	fmt.Fprintf(w, "blocks  %d\n", info.Blocks)
	fmt.Fprintf(w, "insts   %d\n", info.Insts)
	if info.Blocks > 0 {
		fmt.Fprintf(w, "mean block length %.2f instructions\n", info.MeanBlockLen())
	}
}
