package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"mptcp/internal/chaos"
	"mptcp/internal/sim"
)

// recClock is a scenario.Clock that runs its events only when the test
// steps it, earliest first (ties in the order asked), and keeps every
// time it was asked for.
type recClock struct {
	now   sim.Time
	queue []recEvent
	asked []sim.Time
}

type recEvent struct {
	t sim.Time
	f func()
}

func (c *recClock) Now() sim.Time { return c.now }

func (c *recClock) At(t sim.Time, f func()) {
	c.asked = append(c.asked, t)
	c.queue = append(c.queue, recEvent{t, f})
}

// peek returns the earliest pending event's index, or -1.
func (c *recClock) peek() int {
	i := -1
	for j, e := range c.queue {
		if i < 0 || e.t < c.queue[i].t {
			i = j
		}
	}
	return i
}

// step runs the earliest pending event.
func (c *recClock) step() {
	i := c.peek()
	e := c.queue[i]
	c.queue = append(c.queue[:i], c.queue[i+1:]...)
	c.now = e.t
	e.f()
}

// walkLinks builds n two-Path links over idle loopback sockets, the even
// ones protected. Protected links start with 10% i.i.d. loss, the others
// with burst loss, so heal-all has a base model's loss to clear.
func walkLinks(t *testing.T, n int, log *chaos.Log) []Link {
	var links []Link
	for i := 0; i < n; i++ {
		l := Link{Name: fmt.Sprintf("l%d", i), Log: log, Protected: i%2 == 0}
		for j := 0; j < 2; j++ {
			conn, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			base := chaos.PathConfig{GE: chaos.DefaultGE()}
			if l.Protected {
				base = chaos.PathConfig{LossRate: 0.1}
			}
			p := chaos.New(conn, base, int64(j))
			t.Cleanup(func() { p.Close() })
			l.Paths = append(l.Paths, p)
		}
		links = append(links, l)
	}
	return links
}

func config(p *chaos.Path) (c chaos.PathConfig) {
	p.Update(func(x *chaos.PathConfig) { c = *x })
	return c
}

// down reports whether p is killed: with its faults off for one probe
// datagram, only a kill can drop it.
func down(t *testing.T, p *chaos.Path) bool {
	saved := config(p)
	p.Update(func(c *chaos.PathConfig) { *c = chaos.PathConfig{} })
	before := p.Stats().Dropped
	if _, err := p.WriteTo([]byte{0}, p.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	p.Update(func(c *chaos.PathConfig) { *c = saved })
	return p.Stats().Dropped > before
}

// events decodes a chaos log and counts its events by name.
func events(t *testing.T, b []byte) map[string]int {
	n := map[string]int{}
	dec := json.NewDecoder(bytes.NewReader(b))
	for dec.More() {
		var e chaos.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		n[e.Ev]++
	}
	return n
}

// TestChaosWalkOnRecordingClock drives the director's walk event by
// event and pins its contract: a protected link is never killed, never
// gets burst loss, and keeps loss ≤ 0.2 and corruption ≤ 0.05; no step
// is scheduled at or after churn; heal-all runs once, at churn, reviving
// every path and clearing i.i.d. and burst loss (a base model's too)
// while every other knob keeps its value.
func TestChaosWalkOnRecordingClock(t *testing.T) {
	const tick, churn = 20 * time.Millisecond, time.Second
	kills, protectedLoss := 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		var buf bytes.Buffer
		log := chaos.NewLog(&buf)
		links := walkLinks(t, 4, log)
		clock := &recClock{}
		direct(clock, links, tick, churn, seed, log)
		for clock.queue[clock.peek()].t < sim.Time(churn) {
			clock.step()
			for _, l := range links {
				for _, p := range l.Paths {
					if c := config(p); l.Protected && (c.GE != nil || c.LossRate > 0.2 || c.CorruptRate > 0.05 || down(t, p)) {
						t.Fatalf("seed %d, t=%v: protected %s has GE=%v loss=%.2f corrupt=%.2f down=%v",
							seed, clock.now, l.Name, c.GE, c.LossRate, c.CorruptRate, down(t, p))
					}
				}
			}
		}
		late := 0
		for _, at := range clock.asked {
			if at >= sim.Time(churn) {
				late++
			}
		}
		if late != 1 {
			t.Fatalf("seed %d: %d events asked for at or after churn %v, want heal-all's alone", seed, late, churn)
		}
		if len(clock.queue) != 1 || clock.queue[0].t != sim.Time(churn) || events(t, buf.Bytes())["heal-all"] != 0 {
			t.Fatalf("seed %d: %d events pending, the first at %v; want heal-all alone, at churn %v and not yet run",
				seed, len(clock.queue), clock.queue[0].t, churn)
		}

		var before []chaos.PathConfig
		for _, l := range links {
			for _, p := range l.Paths {
				before = append(before, config(p))
			}
		}
		clock.step()
		i := 0
		for _, l := range links {
			for _, p := range l.Paths {
				want := before[i]
				want.LossRate, want.GE = 0, nil
				if got := config(p); got != want || down(t, p) {
					t.Errorf("seed %d: %s after heal-all: %+v (down=%v), want %+v up", seed, l.Name, got, down(t, p), want)
				}
				i++
			}
		}
		n := events(t, buf.Bytes())
		if len(clock.queue) != 0 || n["heal-all"] != 1 {
			t.Errorf("seed %d: heal-all logged %d times, %d events left after it", seed, n["heal-all"], len(clock.queue))
		}
		kills += n["kill"]
		protectedLoss += bytes.Count(buf.Bytes(), []byte(`"ev":"loss","path":"l0"`))
	}
	if kills == 0 || protectedLoss == 0 {
		t.Errorf("the walks logged %d kills and %d loss steps on a protected link: the bounds went untested", kills, protectedLoss)
	}
}

// TestChaosWalkStopsWithClock: once the run's Clock is stopped, before
// churn, the walk changes nothing more and heal-all never runs.
func TestChaosWalkStopsWithClock(t *testing.T) {
	var buf bytes.Buffer
	log := chaos.NewLog(&buf)
	links := walkLinks(t, 2, log)
	clock := NewClock()
	direct(clock, links, time.Millisecond, 60*time.Millisecond, 1, log)
	time.Sleep(20 * time.Millisecond)
	clock.Stop()
	logged := buf.Len()
	var before []chaos.PathConfig
	for _, l := range links {
		for _, p := range l.Paths {
			before = append(before, config(p))
		}
	}
	time.Sleep(80 * time.Millisecond)
	i := 0
	for _, l := range links {
		for _, p := range l.Paths {
			if got := config(p); got != before[i] {
				t.Errorf("%s changed after Stop: %+v, was %+v", l.Name, got, before[i])
			}
			i++
		}
	}
	if logged == 0 || buf.Len() != logged {
		t.Errorf("log held %d bytes at Stop, %d after: want some steps before Stop and none after", logged, buf.Len())
	}
}
