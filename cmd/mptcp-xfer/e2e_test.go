package main

// End-to-end test of the real binary: `go build` mptcp-xfer, run receiver
// and sender as separate OS processes over loopback UDP, interpose a
// chaos relay on each subflow and flap one of them (kill/heal) for the
// whole transfer. The file must arrive byte-exact — same SHA-256 — and
// both processes must exit cleanly. This pins the CLI surface (flags,
// the "listening on" stderr contract the test parses) as well as the
// stack's recovery through a real partition between real processes.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mptcp/internal/chaos"
	"mptcp/internal/chaos/harness"
	"mptcp/internal/scenario"
	"mptcp/internal/sim"
)

var (
	listenRE = regexp.MustCompile(`subflow (\d+) listening on (\S+)`)
	debugRE  = regexp.MustCompile(`debug listening on (\S+)`)
)

// buildXfer compiles the binary once per test into dir.
func buildXfer(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "mptcp-xfer")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestE2EBinaryTransferOverFlappingRelay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes")
	}
	dir := t.TempDir()
	bin := buildXfer(t, dir)

	// ~512 KiB of seeded pseudo-random payload.
	const size = 512 << 10
	data := make([]byte, size)
	rand.New(rand.NewSource(42)).Read(data) //nolint:errcheck
	inFile := filepath.Join(dir, "in.bin")
	if err := os.WriteFile(inFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	outFile := filepath.Join(dir, "out.bin")

	// Receiver process: two subflow ports, announced on stderr.
	recv := exec.Command(bin, "-recv", "-paths", "2", "-out", outFile)
	recvErr, err := recv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}
	defer recv.Process.Kill() //nolint:errcheck — no-op on clean exit

	ports := make(map[int]string)
	sc := bufio.NewScanner(recvErr)
	for len(ports) < 2 && sc.Scan() {
		if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
			_, port, err := net.SplitHostPort(m[2])
			if err != nil {
				t.Fatalf("unparseable listen addr %q: %v", m[2], err)
			}
			ports[len(ports)] = port
		}
	}
	if len(ports) < 2 {
		t.Fatalf("receiver announced %d subflow ports, want 2 (scan err %v)", len(ports), sc.Err())
	}
	go func() { // keep draining so the receiver never blocks on stderr
		for sc.Scan() {
		}
	}()

	// One chaos relay per subflow. Both are rate-limited so the transfer
	// spans several flap cycles; relay 1 is the one that gets partitioned.
	var relays []*chaos.Relay
	for i := 0; i < 2; i++ {
		target, err := net.ResolveUDPAddr("udp", "127.0.0.1:"+ports[i])
		if err != nil {
			t.Fatal(err)
		}
		r, err := chaos.NewRelay(target, chaos.PathConfig{Delay: time.Millisecond, RateBps: 40e6}, int64(7000+i))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		relays = append(relays, r)
	}

	// Relay 1 is down 30 ms of every 60 until the test ends.
	clock := harness.NewClock()
	defer clock.Stop()
	flap := scenario.PeriodicFlap{Link: 0, Start: 30 * sim.Millisecond, End: sim.Time(time.Hour),
		Period: 60 * sim.Millisecond, Down: 30 * sim.Millisecond}
	scenario.Scenario{Name: "relay-flap", Directives: []scenario.Directive{flap}}.MustInstall(&scenario.Env{
		Clock: clock, Links: []scenario.Link{harness.Link{Name: "relay1", Paths: []*chaos.Path{relays[1].Path()}}}})

	var toAddrs []string
	for _, r := range relays {
		_, port, err := net.SplitHostPort(r.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		toAddrs = append(toAddrs, "127.0.0.1:"+port)
	}

	send := exec.Command(bin, "-send", inFile, "-to", strings.Join(toAddrs, ","))
	var sendOut bytes.Buffer
	send.Stderr = &sendOut
	if err := send.Run(); err != nil {
		t.Fatalf("sender: %v\n%s", err, sendOut.String())
	}
	if err := recv.Wait(); err != nil {
		t.Fatalf("receiver: %v", err)
	}

	got, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != size {
		t.Fatalf("received %d bytes, want %d", len(got), size)
	}
	if sha256.Sum256(got) != sha256.Sum256(data) {
		t.Fatal("file corrupted in transit: SHA-256 mismatch")
	}
	if st := relays[1].Path().Stats(); st.Dropped == 0 {
		t.Error("the flapped relay never dropped a datagram — the partition was vacuous")
	} else {
		t.Logf("flapped relay: %+v; sender: %s", st, strings.TrimSpace(lastLine(sendOut.String())))
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// TestE2EDebugEndpoint: -debug-addr serves expvar and pprof over HTTP on
// both ends of a live transfer. The receiver's endpoint is probed before
// any data flows (counters at zero, pprof answering); the sender's is
// polled mid-transfer through a rate-limited relay until the published
// protocol snapshot shows segments on the wire. The transfer must still
// arrive byte-exact — introspection is read-only.
func TestE2EDebugEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes")
	}
	dir := t.TempDir()
	bin := buildXfer(t, dir)

	const size = 512 << 10
	data := make([]byte, size)
	rand.New(rand.NewSource(43)).Read(data) //nolint:errcheck
	inFile := filepath.Join(dir, "in.bin")
	if err := os.WriteFile(inFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	outFile := filepath.Join(dir, "out.bin")

	// scanAddrs reads a process's stderr until n subflow ports and one
	// debug address have been announced, then keeps draining.
	scanAddrs := func(r *bufio.Scanner, n int) (ports []string, debug string) {
		for (len(ports) < n || debug == "") && r.Scan() {
			if m := listenRE.FindStringSubmatch(r.Text()); m != nil {
				_, port, err := net.SplitHostPort(m[2])
				if err != nil {
					t.Fatalf("unparseable listen addr %q: %v", m[2], err)
				}
				ports = append(ports, port)
			}
			if m := debugRE.FindStringSubmatch(r.Text()); m != nil {
				debug = m[1]
			}
		}
		go func() {
			for r.Scan() {
			}
		}()
		return
	}

	recv := exec.Command(bin, "-recv", "-paths", "2", "-out", outFile, "-debug-addr", "127.0.0.1:0")
	recvErr, err := recv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}
	defer recv.Process.Kill() //nolint:errcheck — no-op on clean exit
	ports, recvDebug := scanAddrs(bufio.NewScanner(recvErr), 2)
	if len(ports) < 2 || recvDebug == "" {
		t.Fatalf("receiver announced ports %v, debug %q", ports, recvDebug)
	}

	// Probe the idle receiver: expvar must publish the protocol snapshot,
	// pprof must answer.
	var vars struct {
		Receiver *struct {
			Received        int64   `json:"received"`
			Corrupt         int64   `json:"corrupt"`
			SubflowReceived []int64 `json:"subflow_received"`
		} `json:"mptcp_receiver"`
	}
	if err := getJSON("http://"+recvDebug+"/debug/vars", &vars); err != nil {
		t.Fatal(err)
	}
	if vars.Receiver == nil || len(vars.Receiver.SubflowReceived) != 2 {
		t.Fatalf("receiver /debug/vars missing protocol snapshot: %+v", vars.Receiver)
	}
	if resp, err := http.Get("http://" + recvDebug + "/debug/pprof/cmdline"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("pprof endpoint: %v (resp %+v)", err, resp)
	} else {
		resp.Body.Close()
	}

	// Rate-limited relays give the transfer a ~1s window to observe the
	// sender mid-flight.
	var toAddrs []string
	for i, p := range ports {
		target, err := net.ResolveUDPAddr("udp", "127.0.0.1:"+p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := chaos.NewRelay(target, chaos.PathConfig{Delay: time.Millisecond, RateBps: 4e6}, int64(7100+i))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		_, port, err := net.SplitHostPort(r.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		toAddrs = append(toAddrs, "127.0.0.1:"+port)
	}

	send := exec.Command(bin, "-send", inFile, "-to", strings.Join(toAddrs, ","), "-debug-addr", "127.0.0.1:0")
	sendErr, err := send.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := send.Start(); err != nil {
		t.Fatal(err)
	}
	defer send.Process.Kill() //nolint:errcheck
	_, sendDebug := scanAddrs(bufio.NewScanner(sendErr), 0)
	if sendDebug == "" {
		t.Fatal("sender never announced its debug address")
	}

	// Poll the sender mid-transfer until the snapshot shows traffic.
	deadline := time.Now().Add(10 * time.Second)
	var snap struct {
		Sender *struct {
			SegsSent    int64   `json:"SegsSent"`
			SubflowSent []int64 `json:"SubflowSent"`
		} `json:"mptcp_sender"`
	}
	for {
		if err := getJSON("http://"+sendDebug+"/debug/vars", &snap); err == nil &&
			snap.Sender != nil && snap.Sender.SegsSent > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sender snapshot never showed traffic: %+v", snap.Sender)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(snap.Sender.SubflowSent) != 2 {
		t.Errorf("sender snapshot per-subflow counters = %v, want 2 entries", snap.Sender.SubflowSent)
	}

	if err := send.Wait(); err != nil {
		t.Fatalf("sender: %v", err)
	}
	if err := recv.Wait(); err != nil {
		t.Fatalf("receiver: %v", err)
	}
	got, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(got) != sha256.Sum256(data) {
		t.Fatal("file corrupted in transit: SHA-256 mismatch")
	}
}

// getJSON fetches url and decodes the body into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
