package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The point of a Lane: however many events queue on it, the heap holds
// one entry for it, while Pending still counts every undispatched event.
func TestLaneHeapStaysSmall(t *testing.T) {
	s := New(1)
	h := &probeHandler{s: s}
	l := s.NewLane(h)
	for i := -5; i < 0; i++ { // leave the ring's head mid-array, so growth copies a wrapped ring
		l.Post(0, i)
	}
	s.Run()
	h.got, h.at = nil, nil
	for i := 0; i < 5000; i++ {
		l.Post(Time(i/2)*Microsecond, i) // pairs of same-instant ties
	}
	if got := s.Pending(); got != 5000 {
		t.Fatalf("Pending() = %d with 5000 events posted, want 5000", got)
	}
	if got := len(s.heap); got != 1 {
		t.Fatalf("heap holds %d entries for one busy lane, want 1", got)
	}
	s.Run()
	if s.Pending() != 0 || len(s.heap) != 0 || s.Steps() != 5005 {
		t.Fatalf("after Run: Pending %d, heap %d, Steps %d; want 0, 0, 5005", s.Pending(), len(s.heap), s.Steps())
	}
	for i, arg := range h.got {
		if arg != i || h.at[i] != Time(i/2)*Microsecond {
			t.Fatalf("dispatch %d: arg %v at %v, want %d at %v", i, arg, h.at[i], i, Time(i/2)*Microsecond)
		}
	}
}

// A lane that drains leaves the heap and re-enters it on the next post,
// including a post made by its own handler while the last item runs.
func TestLaneIdleAndBusyAgain(t *testing.T) {
	s := New(1)
	var l *Lane
	var got []Time
	h := handlerFunc(func(arg any) {
		got = append(got, s.Now())
		if arg.(int) > 0 {
			l.Post(s.Now()+Millisecond, arg.(int)-1)
		}
	})
	l = s.NewLane(h)
	l.Post(Millisecond, 2)
	s.Run()
	if len(s.heap) != 0 || s.Pending() != 0 {
		t.Fatalf("drained lane left heap %d, Pending %d", len(s.heap), s.Pending())
	}
	l.Post(10*Millisecond, 0)
	if len(s.heap) != 1 {
		t.Fatalf("heap holds %d entries after the idle lane was posted to, want 1", len(s.heap))
	}
	s.Run()
	want := []Time{Millisecond, 2 * Millisecond, 3 * Millisecond, 10 * Millisecond}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("dispatched at %v, want %v", got, want)
	}
}

// Lane.Post must not allocate once the ring is warm, on either path:
// appending behind a queued head, or re-entering the heap when idle.
func TestLanePostZeroAlloc(t *testing.T) {
	s := New(1)
	l := s.NewLane(&countHandler{})
	arg := new(int)
	for i := 0; i < 64; i++ {
		l.Post(s.Now()+Time(i), arg)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			l.Post(s.Now()+Time(i), arg)
		}
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("Lane.Post+dispatch allocated %.1f objects/op, want 0", allocs)
	}
}

type handlerFunc func(arg any)

func (f handlerFunc) OnEvent(arg any) { f(arg) }

// --- order equivalence: a Lane must dispatch exactly as plain Posts would.

// dispatched is one line of a script run's log.
type dispatched struct {
	at      Time
	handler int // 0..2 lane handlers, 3 the plain handler, 4 a func, 5.. timers
	arg     int
}

// scriptWorld interprets a byte string as a schedule: two bytes per
// operation, executed by the driver until it runs the clock, and from
// then on also by every handler that fires (one operation per dispatch),
// so events are posted from inside handlers too. The low nibble of the
// second byte picks a delay from a table heavy in zeros and repeats —
// same-instant ties, and lane posts earlier than the lane's tail — and
// the high bits pick the lane or timer.
type scriptWorld struct {
	s       *Simulator
	data    []byte
	useLane bool
	lanes   [3]*Lane
	hs      [4]Handler
	timers  [3]*Timer
	nextArg int
	log     []dispatched
	running bool
	t       *testing.T
}

var scriptDelays = [16]Time{0, 0, 0, 1, 1, 2, 3, 3, 5, 8, 8, 13, 21, 40, 100, 1000}

func newScriptWorld(t *testing.T, data []byte, useLane bool) *scriptWorld {
	w := &scriptWorld{s: New(1), data: data, useLane: useLane, t: t}
	for i := range w.hs {
		i := i
		w.hs[i] = handlerFunc(func(arg any) { w.fired(i, arg.(int)) })
	}
	for i := range w.lanes {
		w.lanes[i] = w.s.NewLane(w.hs[i])
	}
	for i := range w.timers {
		w.newTimer(i)
	}
	return w
}

func (w *scriptWorld) newTimer(i int) {
	w.timers[i] = w.s.NewTimer(func() { w.fired(5+i, 0) })
}

func (w *scriptWorld) fired(handler, arg int) {
	w.log = append(w.log, dispatched{w.s.Now(), handler, arg})
	w.step()
}

// step executes the next operation of the script, if any is left.
func (w *scriptWorld) step() {
	if len(w.data) < 2 {
		return
	}
	op, b := w.data[0]%8, w.data[1]
	w.data = w.data[2:]
	at := w.s.Now() + scriptDelays[b&15]*Microsecond
	k := int(b>>4) % 3
	w.nextArg++
	arg := w.nextArg
	switch op {
	case 0:
		w.s.At(at, func() { w.fired(4, arg) })
	case 1:
		w.s.Post(at, w.hs[3], arg)
	case 2, 3: // twice as likely as the rest: lanes are what is under test
		if w.useLane {
			w.lanes[k].Post(at, arg)
		} else {
			w.s.Post(at, w.hs[k], arg)
		}
	case 4:
		w.timers[k].ResetAt(at)
	case 5:
		w.timers[k].Stop()
	case 6:
		w.timers[k].Stop()
		w.newTimer(k)
	case 7:
		if !w.running {
			w.running = true
			w.s.RunUntil(at)
			w.running = false
		}
	}
	w.checkHeap()
}

// checkHeap verifies the heap order and that every queued slot's
// position entry points back at it.
func (w *scriptWorld) checkHeap() {
	s := w.s
	for i, e := range s.heap {
		if i > 0 && less(e, s.heap[(i-1)/2]) {
			w.t.Fatalf("heap order violated at position %d", i)
		}
		if int(s.pos[e.slot]) != i {
			w.t.Fatalf("slot %d at heap position %d has pos %d", e.slot, i, s.pos[e.slot])
		}
	}
}

func runScript(t *testing.T, data []byte, useLane bool) (log []dispatched, steps uint64) {
	w := newScriptWorld(t, data, useLane)
	for len(w.data) >= 2 {
		w.step()
	}
	w.s.Run()
	if got := w.s.Pending(); got != 0 {
		t.Fatalf("useLane=%v: Pending() = %d after Run, want 0", useLane, got)
	}
	return w.log, w.s.Steps()
}

// checkScript runs data with lanes and with every Lane.Post replaced by
// a plain Post, and requires the same dispatch sequence and step count.
func checkScript(t *testing.T, data []byte) {
	t.Helper()
	want, wantSteps := runScript(t, data, false)
	got, gotSteps := runScript(t, data, true)
	if gotSteps != wantSteps || len(got) != len(want) {
		t.Fatalf("lanes dispatched %d events in %d steps, plain posts %d in %d",
			len(got), gotSteps, len(want), wantSteps)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d: lanes %+v, plain posts %+v", i, got[i], want[i])
		}
	}
}

// Property: on random scripts, lanes never change the dispatch order.
func TestLaneOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 0; n < 300; n++ {
		data := make([]byte, 2*(1+rng.Intn(400)))
		rng.Read(data)
		checkScript(t, data)
	}
}

// FuzzEventOrder is the same check on fuzzer-made scripts; the seed
// corpus is testdata/fuzz/FuzzEventOrder.
func FuzzEventOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			t.Skip()
		}
		checkScript(t, data)
	})
}
