package pipeline

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"streamfetch/internal/isa"
)

// TestEntrySize guards the in-flight entry's footprint. Go copies structs
// of up to 64 bytes with inline moves; anything larger goes through
// runtime.duffcopy, which once cost a quarter of the simulation loop.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got > 48 {
		t.Fatalf("pipeline.Entry is %d bytes, want <= 48", got)
	}
}

// oracleEntry is an oracle slot: a full entry, wrong-path ones included.
type oracleEntry struct {
	Entry
	wrongPath bool
}

// twoPartOracle is the behavioral reference for Window: a ROB slice and a
// fetch-buffer slice, with issue moving an entry from one to the other.
// Unlike the window, it stores wrong-path instructions as full entries.
type twoPartOracle struct {
	rob, fb []oracleEntry
}

func (o *twoPartOracle) all() []oracleEntry {
	return append(append([]oracleEntry(nil), o.rob...), o.fb...)
}

// hasWrongPath reports whether any wrong-path entry is in flight; they are
// the youngest, so it is enough to look at the tail.
func (o *twoPartOracle) hasWrongPath() bool {
	all := o.all()
	return len(all) > 0 && all[len(all)-1].wrongPath
}

func (o *twoPartOracle) squashAfter(seq uint64) int {
	n := 0
	keep := func(s []oracleEntry) []oracleEntry {
		for i := range s {
			if s[i].Seq > seq {
				n += len(s) - i
				return s[:i]
			}
		}
		return s
	}
	o.rob, o.fb = keep(o.rob), keep(o.fb)
	return n
}

func (o *twoPartOracle) find(seq uint64) *oracleEntry {
	for _, s := range [][]oracleEntry{o.rob, o.fb} {
		for i := range s {
			if s[i].Seq == seq {
				return &s[i]
			}
		}
	}
	return nil
}

// mustPanic reports whether f panics.
func mustPanic(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestWindowDifferential drives the window and the two-part oracle through
// long random push/wrong-path push/issue/retire/find sequences mirroring
// the simulator's use (consecutive sequence numbers, counter rewound to
// the squash point), with squashes landing in the ROB part, in the
// fetch-buffer part and before the head, and requires identical
// observable behavior — correct-path contents, both occupancies and both
// capacity gates — at every step. Wrong-path instructions are only counted
// by the window: Head and Issue must return nil for them, Find must not
// see them, and a correct-path push behind them must panic.
func TestWindowDifferential(t *testing.T) {
	for _, geo := range [][2]int{{16, 8}, {5, 3}, {1, 1}} {
		t.Run(fmt.Sprintf("rob%d_fetch%d", geo[0], geo[1]), func(t *testing.T) {
			testWindowDifferential(t, geo[0], geo[1])
		})
	}
}

func testWindowDifferential(t *testing.T, robCap, fetchCap int) {
	const width = 2
	rng := rand.New(rand.NewSource(int64(42 + robCap)))
	w := NewWindow(robCap, fetchCap)
	ref := &twoPartOracle{}
	seq := uint64(0)

	check := func(step int, what string) {
		t.Helper()
		if w.ROBLen() != len(ref.rob) || w.FetchLen() != len(ref.fb) {
			t.Fatalf("step %d (%s): occupancy (rob %d, fetch %d), oracle (%d, %d)",
				step, what, w.ROBLen(), w.FetchLen(), len(ref.rob), len(ref.fb))
		}
		if w.ROBFull() != (len(ref.rob) == robCap) {
			t.Fatalf("step %d (%s): ROBFull %v at %d/%d", step, what, w.ROBFull(), len(ref.rob), robCap)
		}
		if got, want := w.FetchLen()+width > w.FetchCap(), len(ref.fb)+width > fetchCap; got != want {
			t.Fatalf("step %d (%s): fetch gate %v, oracle %v", step, what, got, want)
		}
		if len(ref.rob) > 0 {
			if h := w.Head(); (h == nil) != ref.rob[0].wrongPath || (h != nil && *h != ref.rob[0].Entry) {
				t.Fatalf("step %d (%s): head %v, oracle %+v", step, what, h, ref.rob[0])
			}
		}
		// Occupancies match, so the oracle's entries located by sequence
		// number cover the whole window.
		for i, e := range ref.all() {
			got := w.Find(e.Seq)
			if e.wrongPath {
				if got != nil {
					t.Fatalf("step %d (%s): Find(%d) found wrong-path entry %d: %+v", step, what, e.Seq, i, *got)
				}
			} else if got == nil || *got != e.Entry {
				t.Fatalf("step %d (%s): entry %d is %v, oracle %+v", step, what, i, got, e)
			}
		}
	}
	// squashAt squashes both sides after s and rewinds the counter.
	squashAt := func(step int, s uint64) {
		t.Helper()
		if a, b := w.SquashAfter(s), ref.squashAfter(s); a != b {
			t.Fatalf("step %d: SquashAfter(%d) dropped %d, oracle %d", step, s, a, b)
		}
		seq = s
	}

	for step := 0; step < 20000; step++ {
		var what string
		switch op := rng.Intn(24); {
		case op < 6:
			what = "push"
			if len(ref.fb) == fetchCap {
				if !mustPanic(func() { w.Push(seq + 1) }) {
					t.Fatalf("step %d: push to a full fetch buffer did not panic", step)
				}
				continue
			}
			if ref.hasWrongPath() {
				if !mustPanic(func() { w.Push(seq + 1) }) {
					t.Fatalf("step %d: correct-path push behind wrong-path entries did not panic", step)
				}
				continue
			}
			seq++
			e := Entry{Seq: seq, Addr: isa.Addr(0x10000 + 4*(seq%1024)), Branch: isa.BranchType(rng.Intn(3))}
			got := w.Push(seq)
			if *got != (Entry{Seq: seq}) {
				t.Fatalf("step %d: Push returned %+v, want a zeroed slot for seq %d", step, *got, seq)
			}
			got.Addr, got.Branch = e.Addr, e.Branch
			ref.fb = append(ref.fb, oracleEntry{Entry: e})
		case op < 10:
			what = "wrong-path push"
			if len(ref.fb) == fetchCap {
				if !mustPanic(func() { w.PushWrongPath(seq + 1) }) {
					t.Fatalf("step %d: wrong-path push to a full fetch buffer did not panic", step)
				}
				continue
			}
			seq++
			w.PushWrongPath(seq)
			ref.fb = append(ref.fb, oracleEntry{Entry: Entry{Seq: seq}, wrongPath: true})
		case op < 14:
			what = "issue"
			if len(ref.fb) == 0 || len(ref.rob) == robCap {
				continue
			}
			done := uint64(rng.Intn(100))
			e := ref.fb[0]
			got := w.Issue()
			if e.wrongPath {
				if got != nil {
					t.Fatalf("step %d: Issue handed out a slot for wrong-path seq %d: %+v", step, e.Seq, *got)
				}
			} else {
				got.DoneCycle = done
				e.DoneCycle = done
			}
			ref.fb = ref.fb[1:]
			ref.rob = append(ref.rob, e)
		case op < 17:
			what = "retire"
			// Retirement stops at a wrong-path head (check covers Head).
			if len(ref.rob) == 0 || ref.rob[0].wrongPath {
				continue
			}
			if got := *w.PopHead(); got != ref.rob[0].Entry {
				t.Fatalf("step %d: PopHead %+v, oracle %+v", step, got, ref.rob[0])
			}
			ref.rob = ref.rob[1:]
		case op < 19:
			what = "find"
			probe := seq - uint64(rng.Intn(2*(robCap+fetchCap)))
			a, b := w.Find(probe), ref.find(probe)
			if b != nil && b.wrongPath {
				b = nil
			}
			if (a == nil) != (b == nil) || (a != nil && *a != b.Entry) {
				t.Fatalf("step %d: Find(%d) = %v, oracle %v", step, probe, a, b)
			}
			if a != nil && rng.Intn(2) == 0 {
				// Mutate through the pointer, as the simulator does.
				a.Mispredicted, b.Mispredicted = true, true
			}
		case op < 20:
			what = "squash in ROB"
			if len(ref.rob) == 0 {
				continue
			}
			squashAt(step, ref.rob[rng.Intn(len(ref.rob))].Seq)
		case op < 21:
			what = "squash in fetch buffer"
			if len(ref.fb) == 0 {
				continue
			}
			squashAt(step, ref.fb[rng.Intn(len(ref.fb))].Seq)
		case op < 22:
			what = "squash before head"
			all := ref.all()
			if len(all) == 0 || all[0].Seq == 0 {
				continue
			}
			squashAt(step, all[0].Seq-1-uint64(rng.Intn(int(all[0].Seq))))
		default:
			what = "non-consecutive push"
			if len(ref.fb) == fetchCap || len(ref.rob)+len(ref.fb) == 0 {
				continue
			}
			if !mustPanic(func() { w.PushWrongPath(seq + 2) }) {
				t.Fatalf("step %d: non-consecutive wrong-path push did not panic", step)
			}
			if !ref.hasWrongPath() && !mustPanic(func() { w.Push(seq + 2) }) {
				t.Fatalf("step %d: non-consecutive push did not panic", step)
			}
		}
		check(step, what)
	}
}

// TestWindowWraps exercises the ring's wrap-around explicitly: fill,
// issue, half-drain and refill repeatedly so the head circles the ring
// several times, then squash across the wrap.
func TestWindowWraps(t *testing.T) {
	const robCap, fetchCap = 4, 4
	w := NewWindow(robCap, fetchCap)
	seq := uint64(0)
	for round := 0; round < 6; round++ {
		for w.FetchLen() < fetchCap {
			seq++
			w.Push(seq)
		}
		for !w.ROBFull() {
			w.Issue()
		}
		for i := 0; i < robCap/2; i++ {
			want := seq - uint64(w.ROBLen()+w.FetchLen()) + 1
			if e := w.PopHead(); e.Seq != want {
				t.Fatalf("round %d: popped seq %d, want %d", round, e.Seq, want)
			}
		}
	}
	// Squash down to three entries: the whole ROB part and one buffered.
	head := w.Head().Seq
	want := w.ROBLen() + w.FetchLen() - 3
	if dropped := w.SquashAfter(head + 2); dropped != want {
		t.Fatalf("squash dropped %d, want %d", dropped, want)
	}
	if w.ROBLen() != 2 || w.FetchLen() != 1 || w.Find(head+2) == nil || w.Find(head+3) != nil {
		t.Fatalf("post-squash state wrong: rob %d, fetch %d", w.ROBLen(), w.FetchLen())
	}
}
