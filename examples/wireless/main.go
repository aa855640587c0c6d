// Wireless: the §5 scenario — a laptop with WiFi and 3G, with a
// competing TCP on each radio, comparing EWTCP, COUPLED, the paper's
// MPTCP and the Linux-kernel successors (OLIA, BALIA, delay-based
// WVEGAS). Only MPTCP and its successors achieve roughly the competing
// WiFi TCP's throughput while still using the 3G path gently.
//
//	go run ./examples/wireless
package main

import (
	"fmt"

	"mptcp/internal/cc"
	"mptcp/internal/metrics"
	"mptcp/internal/netsim"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
	"mptcp/internal/transport"
)

func main() {
	fmt.Println("WiFi (fast, lossy, short RTT) + 3G (slow, clean, overbuffered),")
	fmt.Println("one competing single-path TCP per radio, 5 simulated minutes:")
	fmt.Println()
	for _, name := range []string{"EWTCP", "COUPLED", "MPTCP", "OLIA", "BALIA", "WVEGAS"} {
		alg, err := cc.New(name)
		if err != nil {
			panic(err)
		}
		s := sim.New(7)
		nw := netsim.NewNet(s)
		wl := topo.NewWireless(topo.WirelessConfig{
			WiFiMbps: 6, WiFiDelay: 8 * sim.Millisecond, WiFiLoss: 0.015, WiFiBuf: 20,
			G3Mbps: 2.0, G3Delay: 60 * sim.Millisecond, G3Loss: 0.0005, G3Buf: 300,
		})
		mp := transport.NewConn(nw, transport.Config{Alg: alg, Paths: wl.Paths()})
		tcpWiFi := transport.NewConn(nw, transport.Config{Paths: wl.Paths()[:1]})
		tcp3G := transport.NewConn(nw, transport.Config{Paths: wl.Paths()[1:]})
		mp.Start()
		tcpWiFi.Start()
		tcp3G.Start()

		s.RunUntil(30 * sim.Second)
		m0, w0, g0 := mp.Delivered(), tcpWiFi.Delivered(), tcp3G.Delivered()
		s.RunUntil(330 * sim.Second)
		dur := 300 * sim.Second
		fmt.Printf("  %-12s multipath %4.2f Mb/s | TCP-WiFi %4.2f | TCP-3G %4.2f\n",
			name,
			metrics.ThroughputMbps(mp.Delivered()-m0, dur),
			metrics.ThroughputMbps(tcpWiFi.Delivered()-w0, dur),
			metrics.ThroughputMbps(tcp3G.Delivered()-g0, dur))
	}
	fmt.Println("\nCOUPLED hides on the 3G path; EWTCP splits evenly; MPTCP matches the")
	fmt.Println("best single-path flow — the incentive to deploy multipath (§2.5).")
}
