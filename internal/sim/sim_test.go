package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTimeConversions(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
}

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30*Millisecond, func() { order = append(order, 3) })
	s.At(10*Millisecond, func() { order = append(order, 1) })
	s.At(20*Millisecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events fired in order %v, want [1 2 3]", order)
	}
	if s.Now() != 30*Millisecond {
		t.Errorf("clock = %v, want 30ms", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of scheduling order: %v", order)
		}
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	s := New(1)
	fired := 0
	s.At(10*Millisecond, func() { fired++ })
	s.At(20*Millisecond, func() { fired++ })
	s.RunUntil(15 * Millisecond)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if s.Now() != 15*Millisecond {
		t.Errorf("clock = %v, want 15ms", s.Now())
	}
	s.RunUntil(25 * Millisecond)
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.NewTimer(func() { fired = true })
	if tm.slot >= 0 {
		t.Error("new timer should be idle until Reset")
	}
	tm.Reset(10 * Millisecond)
	if tm.slot < 0 {
		t.Error("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Error("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	if s.Pending() != 0 {
		t.Errorf("stopped timer left %d events queued, want 0", s.Pending())
	}
	s.Run()
	if fired {
		t.Error("stopped timer fired")
	}
	if tm.slot >= 0 {
		t.Error("stopped timer reports active")
	}
}

func TestTimerStopNil(t *testing.T) {
	var tm *Timer
	if tm.Stop() {
		t.Error("Stop on nil timer should be false")
	}
}

func TestTimerResetRearmsInPlace(t *testing.T) {
	s := New(1)
	var firedAt []Time
	tm := s.NewTimer(func() { firedAt = append(firedAt, s.Now()) })
	tm.Reset(10 * Millisecond)
	// Rearm while queued: the original 10 ms firing must not happen.
	tm.Reset(30 * Millisecond)
	if got := s.Pending(); got != 1 {
		t.Fatalf("rearm left %d events queued, want 1 (in-place)", got)
	}
	s.Run()
	if len(firedAt) != 1 || firedAt[0] != 30*Millisecond {
		t.Errorf("fired at %v, want [30ms]", firedAt)
	}
	// Rearm after firing: pushes a fresh event.
	tm.Reset(5 * Millisecond)
	s.Run()
	if len(firedAt) != 2 || firedAt[1] != 35*Millisecond {
		t.Errorf("fired at %v, want second firing at 35ms", firedAt)
	}
}

func TestTimerResetEarlierAndLater(t *testing.T) {
	s := New(1)
	var order []string
	s.At(20*Millisecond, func() { order = append(order, "mid") })
	tm := s.NewTimer(func() { order = append(order, "timer") })
	tm.Reset(40 * Millisecond)
	tm.Reset(10 * Millisecond) // move earlier, past the queued fn event
	s.Run()
	if len(order) != 2 || order[0] != "timer" || order[1] != "mid" {
		t.Errorf("order = %v, want [timer mid]", order)
	}
}

func TestTimerRearmFromCallback(t *testing.T) {
	s := New(1)
	n := 0
	var tm *Timer
	tm = s.NewTimer(func() {
		n++
		if n < 5 {
			tm.Reset(Millisecond)
		}
	})
	tm.Reset(Millisecond)
	s.Run()
	if n != 5 {
		t.Errorf("periodic timer fired %d times, want 5", n)
	}
	if s.Now() != 5*Millisecond {
		t.Errorf("clock = %v, want 5ms", s.Now())
	}
}

type probeHandler struct {
	got []any
	at  []Time
	s   *Simulator
}

func (p *probeHandler) OnEvent(arg any) {
	p.got = append(p.got, arg)
	p.at = append(p.at, p.s.Now())
}

func TestPostDispatchesHandler(t *testing.T) {
	s := New(1)
	h := &probeHandler{s: s}
	x, y := new(int), new(int)
	s.Post(20*Millisecond, h, y)
	s.Post(10*Millisecond, h, x)
	s.Run()
	if len(h.got) != 2 || h.got[0] != x || h.got[1] != y {
		t.Fatalf("handler got %v, want [x y] in time order", h.got)
	}
	if h.at[0] != 10*Millisecond || h.at[1] != 20*Millisecond {
		t.Errorf("handler fired at %v, want [10ms 20ms]", h.at)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var trace []Time
	s.At(10*Millisecond, func() {
		trace = append(trace, s.Now())
		s.After(5*Millisecond, func() {
			trace = append(trace, s.Now())
		})
	})
	s.Run()
	if len(trace) != 2 || trace[0] != 10*Millisecond || trace[1] != 15*Millisecond {
		t.Errorf("trace = %v, want [10ms 15ms]", trace)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(10*Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(5*Millisecond, func() {})
	})
	s.Run()
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		s := New(seed)
		var out []int
		var step func()
		n := 0
		step = func() {
			out = append(out, s.Rand().Intn(1000))
			n++
			if n < 50 {
				s.After(Time(1+s.Rand().Intn(100))*Millisecond, step)
			}
		}
		s.After(0, step)
		s.Run()
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different traces at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces (suspicious)")
	}
}

// Property: for any set of scheduled times, events fire in nondecreasing
// time order and the clock never goes backwards.
func TestEventOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		s := New(7)
		var fired []Time
		for _, d := range delays {
			s.At(Time(d)*Microsecond, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(0))}); err != nil {
		t.Error(err)
	}
}

// Property: stopping a random subset of timers fires exactly the others,
// and the queue holds live events only at every point.
func TestStopSubsetProperty(t *testing.T) {
	prop := func(delays []uint16, stopMask []bool) bool {
		s := New(3)
		fired := make(map[int]bool)
		timers := make([]*Timer, len(delays))
		for i, d := range delays {
			i := i
			timers[i] = s.NewTimer(func() { fired[i] = true })
			timers[i].Reset(Time(d) * Microsecond)
		}
		want := make(map[int]bool)
		stopped := 0
		for i := range delays {
			if i < len(stopMask) && stopMask[i] {
				timers[i].Stop()
				stopped++
			} else {
				want[i] = true
			}
		}
		if s.Pending() != len(delays)-stopped {
			return false // cancelled events must leave the heap eagerly
		}
		s.Run()
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if !fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: interleaved rearms preserve (time, scheduling-order) firing.
func TestResetOrderingProperty(t *testing.T) {
	prop := func(moves []uint16) bool {
		s := New(9)
		const n = 8
		var fired []Time
		timers := make([]*Timer, n)
		for i := range timers {
			timers[i] = s.NewTimer(func() { fired = append(fired, s.Now()) })
			timers[i].Reset(Time(i+1) * Millisecond)
		}
		for k, m := range moves {
			timers[k%n].Reset(Time(m) * Microsecond)
		}
		s.Run()
		if len(fired) != n {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// The packet-hop path (Post) must not allocate once the heap is warm.
func TestPostZeroAlloc(t *testing.T) {
	s := New(1)
	h := &countHandler{}
	arg := new(int)
	for i := 0; i < 1024; i++ { // warm the heap's backing array
		s.Post(s.Now()+Time(i), h, arg)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		s.Post(s.Now()+Microsecond, h, arg)
		s.RunUntil(s.Now() + Millisecond)
	})
	if allocs != 0 {
		t.Errorf("Post+dispatch allocated %.1f objects/op, want 0", allocs)
	}
}

// Rearming a live timer must not allocate.
func TestTimerResetZeroAlloc(t *testing.T) {
	s := New(1)
	tm := s.NewTimer(func() {})
	tm.Reset(Second)
	allocs := testing.AllocsPerRun(100, func() {
		tm.Reset(Second)
	})
	if allocs != 0 {
		t.Errorf("Reset allocated %.1f objects/op, want 0", allocs)
	}
}

// timerOwner embeds its timer and is the Handler the timer fires, the
// way a transport subflow holds its retransmission timer.
type timerOwner struct {
	tm    Timer
	fired int
}

func (o *timerOwner) OnEvent(any) { o.fired++ }

// TestInPlaceTimerZeroAlloc: a Timer initialised inside its owner and
// firing into it costs the allocator nothing — Init, arm, rearm, stop,
// arm again and fire allocate 0 — and NewTimer, the same Timer over a
// function, still runs its function.
func TestInPlaceTimerZeroAlloc(t *testing.T) {
	s := New(1)
	o := &timerOwner{}
	allocs := testing.AllocsPerRun(100, func() {
		o.tm.Init(s, o)
		o.tm.Reset(Second)
		o.tm.Reset(2 * Second)
		o.tm.Stop()
		o.tm.Reset(Millisecond)
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("in-place timer cycle allocated %.1f objects/op, want 0", allocs)
	}
	if o.fired != 101 || s.Pending() != 0 {
		t.Errorf("owner fired %d times with %d events left, want 101 and 0", o.fired, s.Pending())
	}
	var firedAt Time = -1
	tm := s.NewTimer(func() { firedAt = s.Now() })
	want := s.Now() + Second
	tm.Reset(Second)
	s.Run()
	if firedAt != want {
		t.Errorf("NewTimer's function ran at %v, want %v", firedAt, want)
	}
}

type countHandler struct{ n int }

func (c *countHandler) OnEvent(arg any) { c.n++ }

// TestPayloadSize pins the slot payload at a handler, its argument and
// a lane pointer: every event but a lane head is a Handler.
func TestPayloadSize(t *testing.T) {
	if got := unsafe.Sizeof(payload{}); got > 40 {
		t.Fatalf("slot payload is %d B, want at most 40", got)
	}
}
