package peerstripe_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"peerstripe"
	"peerstripe/internal/telemetry"
)

// TestClientMetricsReconcile drives a scripted workload through a live
// ring and checks the client's telemetry snapshot against it: store and
// fetch latency counts match the operations issued, the wire-pool
// counters moved, and the Prometheus exposition is well-formed.
func TestClientMetricsReconcile(t *testing.T) {
	_, seed := testRing(t, 4, 1<<30)
	c := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(64<<10))

	const stores = 3
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 200<<10)
	rng.Read(data)
	for i := 0; i < stores; i++ {
		name := fmt.Sprintf("met-%d", i)
		if _, err := c.StoreBytes(context.Background(), name, data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		f, err := c.Open(context.Background(), fmt.Sprintf("met-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(io.NewSectionReader(f, 0, f.Size()))
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("fetched bytes differ")
		}
	}

	// One small random read: a block range, not a chunk.
	before := c.Metrics().Counters
	f, err := c.Open(context.Background(), "met-2")
	if err != nil {
		t.Fatal(err)
	}
	part := make([]byte, 3000)
	if _, err := f.ReadAt(part, 70_000); err != nil || !bytes.Equal(part, data[70_000:73_000]) {
		t.Fatalf("ranged read: %v", err)
	}
	f.Close()

	m := c.Metrics()
	for name, want := range map[string]int64{
		"ps_client_range_reads_total":    1,
		"ps_client_range_rebuilds_total": 0,
		"ps_client_range_bytes_total":    3000,
	} {
		if got, ok := m.Counters[name]; !ok || got-before[name] != want {
			t.Errorf("%s moved by %d (present %v), want %d", name, got-before[name], ok, want)
		}
	}
	if got := m.Latencies["ps_client_store_seconds"].Count; got != stores {
		t.Errorf("store latency count = %d, want %d", got, stores)
	}
	if lat := m.Latencies["ps_client_store_seconds"]; lat.P50 <= 0 || lat.Max < lat.P50 {
		t.Errorf("store latency quantiles implausible: %+v", lat)
	}
	if got := m.Latencies["ps_client_fetch_seconds"].Count; got < 1 {
		t.Errorf("fetch latency count = %d, want >= 1", got)
	}
	if m.Counters["ps_client_dials_total"] < 1 {
		t.Errorf("dials = %d, want >= 1", m.Counters["ps_client_dials_total"])
	}
	if m.Counters["ps_client_bytes_out_total"] < int64(stores*len(data)) {
		t.Errorf("bytes out = %d, want >= %d", m.Counters["ps_client_bytes_out_total"], stores*len(data))
	}
	// The cache mirrors agree with the CacheStats surface.
	cs := c.CacheStats()
	if got := m.Counters["ps_cache_misses_total"]; got != cs.Misses {
		t.Errorf("cache misses mirror = %d, CacheStats = %d", got, cs.Misses)
	}
	if got := m.Gauges["ps_cache_max_bytes"]; got != cs.MaxBytes {
		t.Errorf("cache max mirror = %d, CacheStats = %d", got, cs.MaxBytes)
	}

	var buf bytes.Buffer
	if err := c.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ValidateText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("client exposition invalid: %v\n%s", err, buf.String())
	}
	if samples == 0 {
		t.Fatal("client exposition empty")
	}
	for _, want := range []string{"ps_client_calls_total", "ps_cache_hits_total", "ps_client_store_seconds_bucket",
		"ps_client_range_reads_total", "ps_client_range_rebuilds_total 0", "ps_client_range_bytes_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// publicRing starts n public Nodes with fast detector knobs and the
// repair daemon, waits for the membership view to converge, and
// returns them with the seed address.
func publicRing(t *testing.T, n int) []*peerstripe.Node {
	t.Helper()
	opts := []peerstripe.NodeOption{
		peerstripe.WithProbeInterval(40 * time.Millisecond),
		peerstripe.WithProbeTimeout(150 * time.Millisecond),
		peerstripe.WithSuspicionTimeout(500 * time.Millisecond),
		peerstripe.WithIndirectProbes(2),
		peerstripe.WithRepair("xor"),
	}
	nodes := make([]*peerstripe.Node, n)
	seed := ""
	for i := range nodes {
		nd, err := peerstripe.ListenAndServe("127.0.0.1:0", 1<<30, seed, fmt.Sprintf("obs-%d", i), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if seed == "" {
			seed = nd.Addr()
		}
		nodes[i] = nd
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		converged := true
		for _, nd := range nodes {
			if nd.RingSize() != n {
				converged = false
			}
		}
		if converged {
			return nodes
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("public ring did not converge")
	return nil
}

// scrape GETs one admin endpoint and returns status and body.
func scrape(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminEndpointsLiveRing is the end-to-end observability check: a
// live loopback ring under an admin listener must serve /-/metrics
// text that a Prometheus parser accepts and that reconciles with a
// scripted workload — stored files show up as node ops and used bytes,
// and killing a node moves the death and repair counters on the
// survivors.
func TestAdminEndpointsLiveRing(t *testing.T) {
	if testing.Short() {
		t.Skip("live ring integration test")
	}
	const n = 4
	nodes := publicRing(t, n)

	admin := httptest.NewServer(nodes[0].AdminHandler())
	defer admin.Close()

	if code, body := scrape(t, admin.URL+"/-/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if code, _ := scrape(t, admin.URL+"/debug/pprof/"); code != 200 {
		t.Fatalf("pprof index = %d", code)
	}

	c := dialTest(t, nodes[0].Addr(), peerstripe.WithCode("xor"), peerstripe.WithChunkCap(32<<10))
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 128<<10)
	rng.Read(data)
	const stores, fetches = 3, 2
	for i := 0; i < stores; i++ {
		if _, err := c.StoreBytes(context.Background(), fmt.Sprintf("obs-file-%d", i), data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < fetches; i++ {
		f, err := c.Open(context.Background(), fmt.Sprintf("obs-file-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadAll(io.NewSectionReader(f, 0, f.Size())); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	code, body := scrape(t, admin.URL+"/-/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	samples, err := telemetry.ValidateText(strings.NewReader(body))
	if err != nil {
		t.Fatalf("node exposition invalid: %v", err)
	}
	if samples == 0 {
		t.Fatal("node exposition empty")
	}
	for _, want := range []string{"ps_node_ops_total", "ps_node_used_bytes", "ps_detect_probes_total", "ps_repair_queue_depth"} {
		if !strings.Contains(body, want) {
			t.Errorf("node exposition missing %s", want)
		}
	}
	// The workload reached this node: the scripted stores spread blocks
	// across every member of a 4-node xor ring.
	m := nodes[0].Metrics()
	if m.Latencies["ps_node_handle_seconds"].Count < 1 {
		t.Error("node handled no requests after workload")
	}
	if got, want := m.Gauges["ps_node_used_bytes"], nodes[0].Used(); got != want {
		t.Errorf("used bytes gauge = %d, Node.Used() = %d", got, want)
	}

	// Kill a node; survivors must commit the death and the repair
	// counters (mirrors of RepairReport) must move on whichever
	// survivor holds affected allocation tables.
	nodes[n-1].Close()
	deadline := time.Now().Add(20 * time.Second)
	repaired := false
	for time.Now().Before(deadline) && !repaired {
		for _, nd := range nodes[:n-1] {
			mm := nd.Metrics()
			rpt := nd.RepairReport()
			if mm.Counters["ps_repair_files_repaired_total"] > 0 &&
				mm.Counters["ps_detect_deaths_total"] > 0 &&
				int(mm.Counters["ps_repair_files_repaired_total"]) <= rpt.FilesRepaired {
				repaired = true
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !repaired {
		t.Fatal("no survivor reported a committed death plus completed repairs")
	}

	// Post-repair scrape still parses and now shows detector activity.
	_, body = scrape(t, admin.URL+"/-/metrics")
	if _, err := telemetry.ValidateText(strings.NewReader(body)); err != nil {
		t.Fatalf("post-repair exposition invalid: %v", err)
	}
	if !strings.Contains(body, "ps_detect_deaths_total") {
		t.Error("post-repair exposition missing ps_detect_deaths_total")
	}
}
