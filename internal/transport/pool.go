package transport

import "mptcp/internal/netsim"

// ConnPool recycles completed connections across the lifetime of one
// simulated world, and is the one way to run a flow that an arrival
// process spawns: scenario.FlowChurn, the §3 server downloads, the fleet
// and the application workloads all create thousands of short flows,
// and without pooling every flow allocates subflows, timers, scoreboard
// and receiver rings and scratch slices that become garbage seconds
// later. A pooled connection is rebuilt by Conn.init, which reuses those
// allocations: the i-th flow through a pool behaves exactly like a fresh
// NewConn with the same Config (same transmissions, same completion
// time), so pooling is a pure allocation optimisation.
//
// The pool is keyed by path count, the one shape parameter Conn.init
// cannot convert in place. It is single-world and not goroutine-safe,
// like everything else owned by one simulator.
type ConnPool struct {
	nw   *netsim.Net
	free [][]*Conn // completed connections, indexed by path count
	live []*Conn   // handed out by Get and not yet returned by Put

	// Gets counts Get calls; Reuses the subset served from the pool.
	Gets, Reuses int64
}

// NewConnPool returns an empty pool over nw.
func NewConnPool(nw *netsim.Net) *ConnPool {
	return &ConnPool{nw: nw}
}

// Get returns a connection configured with cfg — recycled when a
// completed connection with the same path count is available, fresh
// otherwise. The caller still calls Start, and should hand the
// connection back with Put once it completes.
func (p *ConnPool) Get(cfg Config) *Conn {
	p.Gets++
	var c *Conn
	if k := len(cfg.Paths); k < len(p.free) && len(p.free[k]) > 0 {
		l := p.free[k]
		c = l[len(l)-1]
		l[len(l)-1] = nil
		p.free[k] = l[:len(l)-1]
		p.Reuses++
		c.init(p.nw, cfg)
	} else {
		c = NewConn(p.nw, cfg)
	}
	c.liveAt = len(p.live)
	p.live = append(p.live, c)
	return c
}

// Put hands a finished connection back for recycling. Only completed
// (or Stopped) connections may be pooled: a live connection still owns
// timers and in-flight state that recycling would corrupt. Nor may a
// connection be put twice, or into a pool that did not hand it out.
// Calling Put from Config.OnComplete is safe — the core stops the
// connection's timers before the callback runs — so a spawner can bind
// OnComplete to pool.Put once for all its arrivals.
func (p *ConnPool) Put(c *Conn) {
	if !c.Done() {
		panic("transport: pooling a connection that has not completed")
	}
	i := c.liveAt
	if i >= len(p.live) || p.live[i] != c {
		panic("transport: pooling a connection that is not out of this pool (never handed out, or already put back)")
	}
	last := p.live[len(p.live)-1]
	p.live[i], last.liveAt = last, i
	p.live[len(p.live)-1] = nil
	p.live = p.live[:len(p.live)-1]
	k := len(c.cfg.Paths)
	if k >= len(p.free) {
		p.free = append(p.free, make([][]*Conn, k+1-len(p.free))...)
	}
	p.free[k] = append(p.free[k], c)
}

// LiveCount returns the number of connections handed out by Get and not
// yet returned by Put. Provided every completion path calls Put (the
// pooled-workload convention), at a simulation horizon these are
// exactly the flows still in flight.
func (p *ConnPool) LiveCount() int64 { return int64(len(p.live)) }

// LiveDelivered sums Delivered across the live connections: the data
// packets already delivered by flows that have not completed. Workloads
// add this to their completed-flow totals so goodput at a horizon does
// not undercount in-flight transfers.
func (p *ConnPool) LiveDelivered() int64 {
	var pkts int64
	for _, c := range p.live {
		pkts += c.Delivered()
	}
	return pkts
}
