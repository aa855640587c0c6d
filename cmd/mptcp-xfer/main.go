// Command mptcp-xfer is a multipath file-transfer tool over the
// mptcpnet userspace MPTCP stack (UDP subflows, §6 protocol design).
//
// Receiver (binds one UDP port per subflow and prints them):
//
//	mptcp-xfer -recv -paths 2 -out /tmp/file
//
// Sender (one remote addr per subflow, comma separated):
//
//	mptcp-xfer -send file -to 127.0.0.1:7001,127.0.0.1:7002
//
// Either side can serve live introspection while the transfer runs:
//
//	mptcp-xfer -send file -to ... -debug-addr localhost:6060
//	curl -s localhost:6060/debug/vars | jq .mptcp_sender
//	go tool pprof localhost:6060/debug/pprof/profile
//
// For a loopback demo with emulated heterogeneous paths, see
// examples/mptcpnet.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"mptcp/internal/cc"
	"mptcp/internal/mptcpnet"
	"mptcp/internal/registry"
)

func main() {
	recv := flag.Bool("recv", false, "act as receiver")
	paths := flag.Int("paths", 2, "number of subflows (receiver)")
	out := flag.String("out", "", "output file (receiver; default stdout)")
	send := flag.String("send", "", "file to send (sender)")
	to := flag.String("to", "", "comma-separated remote addrs, one per subflow (sender)")
	// The accepted names (and the list below) come from the algorithm
	// registry, so a newly registered algorithm shows up here for free.
	algName := flag.String("alg", "MPTCP",
		"congestion control, by name or alias (case-insensitive):\n"+registry.Help(cc.Infos()))
	connID := flag.Uint64("conn", 1, "connection ID (must match on both ends)")
	debugAddr := flag.String("debug-addr", "",
		"serve live introspection over HTTP on this address (e.g. localhost:6060 or :0):\n"+
			"/debug/vars has expvar counters incl. the per-subflow protocol snapshot,\n"+
			"/debug/pprof/ has CPU/heap/goroutine profiles; empty disables")
	flag.Parse()

	switch {
	case *recv:
		runReceiver(*paths, *out, *connID, *debugAddr)
	case *send != "":
		runSender(*send, *to, *algName, *connID, *debugAddr)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runReceiver(paths int, out string, connID uint64, debugAddr string) {
	var conns []net.PacketConn
	for i := 0; i < paths; i++ {
		c, err := net.ListenPacket("udp", ":0")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "subflow %d listening on %s\n", i, c.LocalAddr())
		conns = append(conns, c)
	}
	rx := mptcpnet.NewReceiver(connID, conns, 1024)
	if debugAddr != "" {
		startDebug(debugAddr, "mptcp_receiver", func() any {
			recvd, dup, overflow := rx.Stats()
			per := make([]int64, paths)
			for i := range per {
				per[i] = rx.SubflowReceived(i)
			}
			return map[string]any{
				"received": recvd, "dup_data": dup, "overflow": overflow,
				"corrupt": rx.Corrupted(), "subflow_received": per,
			}
		})
	}
	w := io.Writer(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	start := time.Now()
	n, err := io.Copy(w, rx)
	if err != nil {
		log.Fatal(err)
	}
	el := time.Since(start)
	perPath := make([]int64, paths)
	for i := range perPath {
		perPath[i] = rx.SubflowReceived(i)
	}
	fmt.Fprintf(os.Stderr, "received %d bytes in %v (%.2f Mb/s); per-path %v\n",
		n, el.Round(time.Millisecond), float64(n)*8/el.Seconds()/1e6, perPath)
	// The stack lives in this process, so exiting closes its sockets. The
	// ACK of the end-of-stream segment may still be on its way out, or be
	// lost; a sender whose end is never acknowledged retransmits it until
	// it gives up, and fails. Stay up for a draining period (TCP's
	// TIME_WAIT, QUIC's draining state) in which the receiver re-ACKs any
	// retransmitted end.
	time.Sleep(drainPeriod)
}

// drainPeriod is how long the receiver keeps acknowledging after the
// stream ends: several retransmission timeouts (200 ms minimum).
const drainPeriod = time.Second

func runSender(file, to, algName string, connID uint64, debugAddr string) {
	alg, err := cc.New(algName) // registry lookup is case-insensitive
	if err != nil {
		log.Fatal(err)
	}
	var conns []net.PacketConn
	var remotes []net.Addr
	for _, a := range strings.Split(to, ",") {
		addr, err := net.ResolveUDPAddr("udp", strings.TrimSpace(a))
		if err != nil {
			log.Fatal(err)
		}
		c, err := net.ListenPacket("udp", ":0")
		if err != nil {
			log.Fatal(err)
		}
		conns = append(conns, c)
		remotes = append(remotes, addr)
	}
	if len(conns) == 0 {
		log.Fatal("sender needs -to with at least one address")
	}
	f, err := os.Open(file)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	tx := mptcpnet.NewSender(connID, conns, remotes, mptcpnet.Config{Alg: alg})
	if debugAddr != "" {
		// mptcpnet.Stats is one coherent snapshot (single lock
		// acquisition), so /debug/vars never shows torn counters.
		startDebug(debugAddr, "mptcp_sender", func() any { return tx.Stats() })
	}
	start := time.Now()
	n, err := io.Copy(tx, f)
	if err != nil {
		log.Fatal(err)
	}
	tx.Close()
	if err := tx.Wait(5 * time.Minute); err != nil {
		log.Fatal(err)
	}
	el := time.Since(start)
	fmt.Fprintf(os.Stderr, "sent %d bytes in %v (%.2f Mb/s) with %s over %d subflows\n",
		n, el.Round(time.Millisecond), float64(n)*8/el.Seconds()/1e6, alg.Name(), len(conns))
}
