// mptcpnet: the userspace MPTCP-over-UDP stack (§6's protocol design with
// real sockets) moving a payload across two emulated paths on loopback —
// a fast lossy "WiFi" and a slow clean "3G" — with coupled congestion
// control.
//
//	go run ./examples/mptcpnet
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"mptcp/internal/chaos"
	"mptcp/internal/mptcpnet"
)

func listen() net.PacketConn {
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	return c
}

func main() {
	// Two UDP "paths" between sender and receiver, shaped differently.
	sWiFi, rWiFi := listen(), listen()
	s3G, r3G := listen(), listen()

	sndConns := []net.PacketConn{
		chaos.New(sWiFi, chaos.PathConfig{Delay: 5 * time.Millisecond, LossRate: 0.01, RateBps: 16e6}, 1),
		chaos.New(s3G, chaos.PathConfig{Delay: 40 * time.Millisecond, LossRate: 0.001, RateBps: 2e6}, 2),
	}
	rcvConns := []net.PacketConn{
		chaos.New(rWiFi, chaos.PathConfig{Delay: 5 * time.Millisecond, LossRate: 0.002}, 3),
		chaos.New(r3G, chaos.PathConfig{Delay: 40 * time.Millisecond}, 4),
	}
	remotes := []net.Addr{rWiFi.LocalAddr(), r3G.LocalAddr()}

	const connID = 2011 // NSDI vintage
	rx := mptcpnet.NewReceiver(connID, rcvConns, 512)
	tx := mptcpnet.NewSender(connID, sndConns, remotes, mptcpnet.Config{})

	payload := make([]byte, 2<<20) // 2 MiB
	for i := range payload {
		payload[i] = byte(i)
	}
	start := time.Now()
	go func() {
		if _, err := tx.Write(payload); err != nil {
			log.Fatal(err)
		}
		tx.Close()
	}()

	var got int64
	buf := make([]byte, 64<<10)
	for {
		n, err := rx.Read(buf)
		got += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	el := time.Since(start)
	fmt.Printf("transferred %d bytes in %v (%.2f Mb/s) over 2 emulated paths\n",
		got, el.Round(time.Millisecond), float64(got)*8/el.Seconds()/1e6)
	fmt.Printf("  per-path segments: WiFi %d, 3G %d (distinct data)\n",
		rx.SubflowReceived(0), rx.SubflowReceived(1))
	st := tx.Stats()
	_, dup, _ := rx.Stats()
	fmt.Printf("  retransmissions: %d, reinjections: %d, dup data: %d\n", st.SegsRetx, st.Reinjects, dup)
	fmt.Printf("  final windows: WiFi %.1f segs, 3G %.1f segs\n", tx.Cwnd(0), tx.Cwnd(1))
}
