package gateway_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"peerstripe/gateway"
	"peerstripe/internal/telemetry"
)

// TestGatewayMetricsEndpoint drives a small workload through the
// gateway and checks /-/metrics: the exposition parses, the per-method
// counters reconcile with the requests issued, and the /-/stats JSON —
// now read from the same registry — agrees with it.
func TestGatewayMetricsEndpoint(t *testing.T) {
	_, base := gateTest(t, gateway.Config{})

	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 64<<10)
	rng.Read(data)
	putObject(t, base, "m/a", data)
	putObject(t, base, "m/b", data)
	for i := 0; i < 3; i++ {
		resp, body := get(t, base+"/m/a", nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
			t.Fatalf("GET m/a: %s, %d bytes", resp.Status, len(body))
		}
	}
	if resp, _ := get(t, base+"/m/missing", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing = %s, want 404", resp.Status)
	}

	resp, err := http.Get(base + "/-/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ValidateText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("gateway exposition invalid: %v\n%s", err, body)
	}
	if samples == 0 {
		t.Fatal("gateway exposition empty")
	}
	text := string(body)
	// Gateway families plus the appended client registry (wire pool and
	// chunk cache) in one well-formed scrape.
	for _, want := range []string{
		`ps_gw_gets_total 4`, // 3 hits + 1 miss
		`ps_gw_puts_total 2`,
		`ps_gw_errors_total 1`,
		`ps_gw_responses_total{method="GET",code="200"} 3`,
		`ps_gw_responses_total{method="GET",code="404"} 1`,
		`ps_gw_responses_total{method="PUT",code="201"} 2`,
		`ps_gw_request_seconds_count{method="GET"} 4`,
		"ps_gw_first_byte_seconds_count",
		"ps_client_calls_total",
		"ps_cache_hits_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// /-/stats reads the same registry: its counters must agree with
	// the scrape taken while the gateway is quiet.
	sresp, err := http.Get(base + "/-/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st gateway.Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Gets != 4 || st.Puts != 2 || st.Errors != 1 {
		t.Errorf("stats = gets %d puts %d errors %d, want 4/2/1", st.Gets, st.Puts, st.Errors)
	}
	if st.BytesOut != int64(3*len(data)) {
		t.Errorf("stats bytes_out = %d, want %d", st.BytesOut, 3*len(data))
	}
	if st.BytesIn != int64(2*len(data)) {
		t.Errorf("stats bytes_in = %d, want %d", st.BytesIn, 2*len(data))
	}
}

// TestGatewayStatsJSONShape pins the /-/stats wire shape: the rebase
// onto the telemetry registry must not change the JSON contract.
func TestGatewayStatsJSONShape(t *testing.T) {
	_, base := gateTest(t, gateway.Config{})
	resp, err := http.Get(base + "/-/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"gets", "heads", "puts", "deletes", "errors", "bytes_out", "bytes_in", "cache"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("stats JSON missing %q", key)
		}
	}
}
