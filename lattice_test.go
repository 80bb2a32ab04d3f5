package streamfetch

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"streamfetch/internal/store"
)

// latticePin is the sha256 of the lattice's integer counters
// (TestLatticeDigest), recorded at modelVersion latticePinVersion. The
// report goldens cover one corner of the model (164.gzip at width 8);
// the lattice covers every benchmark, engine, layout and width, so a
// model change anywhere in it fails here unless modelVersion is bumped
// and the pin re-recorded with it.
const (
	latticePinVersion = 2
	latticePin        = "161a01e614e8dfa86cbfe14cd5ebf1536efd1a5ee42ccdccd9c82a84990f6038"
)

// latticeInsts is the reference length of every lattice cell: small
// enough that the 264 cells take seconds, long enough that every engine
// trains, mispredicts and misses.
const latticeInsts = 20_000

// hashCounters writes the integer and string leaves of v, each under its
// field path, into h: the counters of a report and the identity of its
// run. Floats are derived from the integers (and may differ in the last
// bit across GOARCHes by FMA fusion), so they are skipped, as is
// wall-clock telemetry (Timings).
func hashCounters(h hash.Hash, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.Name != "Timings" {
				hashCounters(h, path+"."+f.Name, v.Field(i))
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			hashCounters(h, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return cmp.Compare(a.String(), b.String()) })
		for _, k := range keys {
			hashCounters(h, path+"["+k.String()+"]", v.MapIndex(k))
		}
	case reflect.Int, reflect.Int64:
		fmt.Fprintf(h, "%s=%d\n", path, v.Int())
	case reflect.Uint64:
		fmt.Fprintf(h, "%s=%d\n", path, v.Uint())
	case reflect.Bool:
		fmt.Fprintf(h, "%s=%t\n", path, v.Bool())
	case reflect.String:
		fmt.Fprintf(h, "%s=%q\n", path, v.String())
	case reflect.Float64, reflect.Pointer:
	default:
		panic(fmt.Sprintf("hashCounters: %s has unhandled kind %s", path, v.Kind()))
	}
}

// checkLatticeInvariants fails a report that breaks what every run must
// hold: no more instructions retired than the width allows per cycle, no
// more mispredictions than branches.
func checkLatticeInvariants(t *testing.T, name string, rep *Report) {
	t.Helper()
	if rep.Retired == 0 || rep.Retired > uint64(rep.Width)*rep.Cycles {
		t.Errorf("%s: %d retired in %d cycles at width %d", name, rep.Retired, rep.Cycles, rep.Width)
	}
	if rep.Mispredicted > rep.Branches {
		t.Errorf("%s: %d mispredictions of %d branches", name, rep.Mispredicted, rep.Branches)
	}
}

// TestLatticeDigest hashes the integer counters of every benchmark ×
// engine × layout × width (2, 4, 8) report at latticeInsts, then of the
// other run plans (sharded warm and cold, sampled, capped) on a few cells
// and of a replayed trace file for every engine, and pins the digest at
// the current modelVersion. Every cached report and checkpoint is keyed
// by modelVersion, so a digest that moves under an unchanged version
// means the daemon would serve bytes the model no longer computes. The
// same walk checks IPC ≤ width and mispredictions ≤ branches on every
// report, and that each sharded plan retires what its unsharded run
// retires over the same trace.
func TestLatticeDigest(t *testing.T) {
	ctx := context.Background()
	h := sha256.New()

	cells, err := RunSweep(ctx, SweepRequest{Widths: []int{2, 4, 8}, Insts: latticeInsts}, store.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(Benchmarks())*len(Layouts())*len(Engines())*3 {
		t.Fatalf("%d lattice cells", len(cells))
	}
	retired := map[string]uint64{}
	for _, c := range cells {
		name := fmt.Sprintf("%s/%s/%s/w%d", c.Benchmark, c.Layout, c.Engine, c.Width)
		if c.Report == nil {
			t.Fatalf("%s: %s", name, c.Error)
		}
		checkLatticeInvariants(t, name, c.Report)
		hashCounters(h, name, reflect.ValueOf(*c.Report))
		retired[name] = c.Report.Retired
	}

	// The other plans, on cells that span the engines, layouts and widths.
	plans := []struct {
		name string
		opts []Option
		// sameRetired: the plan tiles the whole trace, so it retires
		// what the unsharded cell does.
		sameRetired bool
	}{
		{"sharded-warm", []Option{WithShards(3), WithWarmup(2_000)}, true},
		{"sharded-cold", []Option{WithShards(3), WithWarmup(2_000), WithColdShards()}, true},
		{"sampled", []Option{WithSampling(4, 2_000), WithWarmup(1_000)}, false},
		{"capped", []Option{WithMaxInstructions(12_000)}, false},
	}
	planCells := []struct {
		bench, layout, engine string
		width                 int
	}{
		{"176.gcc", "optimized", "streams", 8},
		{"300.twolf", "base", "ftb", 4},
		{"164.gzip", "optimized", "tcache", 2},
		{"253.perlbmk", "base", "ev8", 8},
	}
	for _, pc := range planCells {
		s := New(pc.bench, WithInstructions(latticeInsts), WithLayout(pc.layout),
			WithEngine(pc.engine), WithWidth(pc.width))
		cell := fmt.Sprintf("%s/%s/%s/w%d", pc.bench, pc.layout, pc.engine, pc.width)
		for _, p := range plans {
			name := p.name + ":" + cell
			rep, err := s.RunWith(ctx, p.opts...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkLatticeInvariants(t, name, rep)
			if p.sameRetired && rep.Retired != retired[cell] {
				t.Errorf("%s: retired %d, unsharded run %d", name, rep.Retired, retired[cell])
			}
			hashCounters(h, name, reflect.ValueOf(*rep))
		}
	}

	// The file trace source: a recorded trace replays to the generated
	// run's counters, for every engine.
	path := filepath.Join(t.TempDir(), "gcc.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	s := New("176.gcc", WithInstructions(latticeInsts), WithOptimizedLayout(), WithWidth(4))
	if _, err := s.WriteTrace(ctx, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, engine := range Engines() {
		name := "file:176.gcc/optimized/" + engine + "/w4"
		rep, err := s.RunWith(ctx, WithEngine(engine), WithTraceFile(path))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkLatticeInvariants(t, name, rep)
		if want := retired["176.gcc/optimized/"+engine+"/w4"]; rep.Retired != want {
			t.Errorf("%s: retired %d, generated trace %d", name, rep.Retired, want)
		}
		hashCounters(h, name, reflect.ValueOf(*rep))
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != latticePin || modelVersion != latticePinVersion {
		t.Fatalf("lattice counters hash to %s at modelVersion %d; pinned %s at %d: "+
			"a change that moves report counters must bump modelVersion, then re-pin latticePin and latticePinVersion",
			got, modelVersion, latticePin, latticePinVersion)
	}
}
