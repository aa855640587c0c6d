package exp

import "testing"

// TestRegistryLookup: every experiment carries its metadata and a
// runner. The catalogue's order and lookup rule are pinned in
// internal/registry's TestCatalogues.
func TestRegistryLookup(t *testing.T) {
	for _, e := range All() {
		if e.Ref == "" || e.Desc == "" || e.Run == nil {
			t.Errorf("experiment %s is missing metadata", e.ID)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.norm()
	if c.Scale != 1 || c.Seed == 0 {
		t.Errorf("norm gave %+v", c)
	}
}

// Shape assertions at moderate scale: these check the paper's qualitative
// claims, not absolute numbers.

func TestShapeSec23(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	e, _ := Get("sec23-wifi3g-model")
	res := e.Run(Config{Seed: 3, Scale: 0.4})
	m := res.Metrics
	if m["mptcp_pktps"] < 0.75*m["tcp_wifi_pktps"] {
		t.Errorf("MPTCP %v should approach best single path %v", m["mptcp_pktps"], m["tcp_wifi_pktps"])
	}
	if m["ewtcp_pktps"] > 0.8*m["mptcp_pktps"] {
		t.Errorf("EWTCP %v should fall well short of MPTCP %v under RTT mismatch", m["ewtcp_pktps"], m["mptcp_pktps"])
	}
	if m["coupled_pktps"] > 0.8*m["mptcp_pktps"] {
		t.Errorf("COUPLED %v should fall well short of MPTCP %v", m["coupled_pktps"], m["mptcp_pktps"])
	}
}

func TestShapeDynamic(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	e, _ := Get("table-dynamic")
	res := e.Run(Config{Seed: 3, Scale: 0.4})
	m := res.Metrics
	if m["coupled_top_mbps"] > 0.8*m["mptcp_top_mbps"] {
		t.Errorf("COUPLED top-link %v should trail MPTCP %v (trapped, §2.4)",
			m["coupled_top_mbps"], m["mptcp_top_mbps"])
	}
	for _, k := range []string{"ewtcp_bottom_mbps", "coupled_bottom_mbps", "mptcp_bottom_mbps"} {
		if m[k] < 90 {
			t.Errorf("%s = %v, the uncontended bottom link should be ~100", k, m[k])
		}
	}
}

func TestShapeWirelessStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	e, _ := Get("table-wireless-static")
	res := e.Run(Config{Seed: 3, Scale: 0.4})
	m := res.Metrics
	if m["sum_ratio"] < 0.85 {
		t.Errorf("MPTCP should reach ~the sum of idle access links, ratio=%v", m["sum_ratio"])
	}
	if m["tcp_wifi_mbps"] < 12 || m["tcp_wifi_mbps"] > 16 {
		t.Errorf("TCP-WiFi = %v, want ~14.4", m["tcp_wifi_mbps"])
	}
	if m["tcp_3g_mbps"] < 1.6 || m["tcp_3g_mbps"] > 2.3 {
		t.Errorf("TCP-3G = %v, want ~2.1", m["tcp_3g_mbps"])
	}
}

func TestShapeFig8Balance(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	e, _ := Get("fig8-torus")
	res := e.Run(Config{Seed: 3, Scale: 0.4})
	m := res.Metrics
	if m["ewtcp_ratio_c100"] > m["mptcp_ratio_c100"] {
		t.Errorf("EWTCP balance %v should be worse (lower) than MPTCP %v",
			m["ewtcp_ratio_c100"], m["mptcp_ratio_c100"])
	}
	if m["mptcp_jain_c100"] < 0.9 {
		t.Errorf("MPTCP Jain index %v should be near the paper's 0.986", m["mptcp_jain_c100"])
	}
}

func TestShapeAblationCap(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	e, _ := Get("ablation-cap")
	res := e.Run(Config{Seed: 3, Scale: 0.4})
	m := res.Metrics
	if m["semicoupled_pktps"] > 0.8*m["mptcp_pktps"] {
		t.Errorf("SEMICOUPLED %v should trail MPTCP %v without RTT compensation",
			m["semicoupled_pktps"], m["mptcp_pktps"])
	}
}

func TestShapeAblationReinject(t *testing.T) {
	e, _ := Get("ablation-reinject")
	res := e.Run(Config{Seed: 3, Scale: 1})
	if res.Metrics["reinject_done"] != 1 {
		t.Error("transfer with reinjection should finish despite path death")
	}
	if res.Metrics["noreinject_done"] != 0 {
		t.Error("transfer without reinjection should strand")
	}
}

// TestShapeTournament asserts the paper's qualitative orderings still
// hold inside the extended grid: MPTCP is at least as fair as EWTCP on
// the torus, and the kernel-family algorithms actually move traffic on
// every topology.
func TestShapeTournament(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	e, _ := Get("tournament")
	res := e.Run(Config{Seed: 3, Scale: 0.3})
	m := res.Metrics
	// Both indices sit near 1 and their ordering at one finite run is
	// seed noise; the paper's claim is that MPTCP stays comparably fair,
	// so allow a small tolerance rather than a strict ordering.
	if m["mptcp_torus_jain"] < m["ewtcp_torus_jain"]-0.02 {
		t.Errorf("MPTCP torus fairness %v should be within 0.02 of EWTCP's %v (§3 Fig. 8)",
			m["mptcp_torus_jain"], m["ewtcp_torus_jain"])
	}
	// COUPLED hides from the busy WiFi path (§5 Fig. 15): every coupled
	// successor should beat it on the wireless client.
	for _, alg := range []string{"mptcp", "olia", "balia"} {
		if m[alg+"_wifi3g_mbps"] <= m["coupled_wifi3g_mbps"] {
			t.Errorf("%s wifi3g %v should exceed COUPLED's %v", alg,
				m[alg+"_wifi3g_mbps"], m["coupled_wifi3g_mbps"])
		}
	}
	for _, alg := range []string{"olia", "balia", "wvegas"} {
		for _, tp := range []string{"torus", "dualhomed", "fattree", "wifi3g"} {
			if m[alg+"_"+tp+"_mbps"] <= 0 {
				t.Errorf("%s delivered nothing on %s", alg, tp)
			}
		}
	}
}
