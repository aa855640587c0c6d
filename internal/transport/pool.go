package transport

import "mptcp/internal/netsim"

// ConnPool recycles completed connections across the lifetime of one
// simulated world. Connection-churn workloads (scenario.FlowChurn, the
// fleet experiment) create tens of thousands of short flows; without
// pooling every flow allocates subflow meta rings, receiver rings and
// scratch slices that become garbage seconds later. A pooled connection
// is rebuilt by Conn.init, which reuses those allocations: the i-th
// flow through a pool behaves exactly like a fresh NewConn with the
// same Config (same transmissions, same completion time), so pooling is
// a pure allocation optimisation.
//
// The pool is keyed by path count, the one shape parameter Conn.init
// cannot convert in place. It is single-world and not goroutine-safe,
// like everything else owned by one simulator.
type ConnPool struct {
	nw   *netsim.Net
	free map[int][]*Conn
	live map[*Conn]struct{}

	// Gets counts Get calls; Reuses the subset served from the pool.
	Gets, Reuses int64
}

// NewConnPool returns an empty pool over nw.
func NewConnPool(nw *netsim.Net) *ConnPool {
	return &ConnPool{nw: nw, free: make(map[int][]*Conn), live: make(map[*Conn]struct{})}
}

// Get returns a connection configured with cfg — recycled when a
// completed connection with the same path count is available, fresh
// otherwise. The caller still calls Start, and should hand the
// connection back with Put once it completes.
func (p *ConnPool) Get(cfg Config) *Conn {
	p.Gets++
	k := len(cfg.Paths)
	if l := p.free[k]; len(l) > 0 {
		c := l[len(l)-1]
		l[len(l)-1] = nil
		p.free[k] = l[:len(l)-1]
		p.Reuses++
		c.init(p.nw, cfg)
		p.live[c] = struct{}{}
		return c
	}
	c := NewConn(p.nw, cfg)
	p.live[c] = struct{}{}
	return c
}

// Put hands a finished connection back for recycling. Only completed
// (or Stopped) connections may be pooled: a live connection still owns
// timers and in-flight state that recycling would corrupt. Calling Put
// from Config.OnComplete is safe — the completion path releases the
// connection's timers before invoking the callback.
func (p *ConnPool) Put(c *Conn) {
	if !c.Done() {
		panic("transport: pooling a connection that has not completed")
	}
	delete(p.live, c)
	k := len(c.cfg.Paths)
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
// not undercount in-flight transfers. Map iteration order is irrelevant
// because the result is a sum.
func (p *ConnPool) LiveDelivered() int64 {
	var pkts int64
	for c := range p.live {
		pkts += c.Delivered()
	}
	return pkts
}
