package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// def declares one metric: BENCHMARK.json repeats these tables, and
// the smoke test checks that the two agree.
type def struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one, from an untraced run.
var endToEnd = []def{
	{"setup_s", "s", "lower"},
	{"write_mbps", "MB/s", "higher"},
	{"read_mbps", "MB/s", "higher"},
	{"ops_per_s", "1/s", "higher"},
	{"write_p50_ms", "ms", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"cpu_ns_per_byte", "ns/B", "lower"},
	{"alloc_bytes_per_byte", "B/B", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"stored_bytes_per_user_byte", "B/B", "lower"},
	{"wire_bytes_per_user_byte", "B/B", "lower"},
}

// perLayer are the metrics of single layers, from a traced run: the
// ladder's rungs, the counters the system exports taken over the
// timed phase, and the two tails, which do not repeat well enough
// between runs to be end-to-end gates.
var perLayer = []def{
	{"write_tail_ms", "ms", "lower"},
	{"read_tail_ms", "ms", "lower"},
	{"erasure.encode_ns_per_byte", "ns/B", "lower"},
	{"erasure.encode_alloc_bytes_per_byte", "B/B", "lower"},
	{"erasure.decode_clean_ns_per_byte", "ns/B", "lower"},
	{"erasure.decode_degraded_ns_per_byte", "ns/B", "lower"},
	{"core.encode_ns_per_byte", "ns/B", "lower"},
	{"core.encode_self_ns_per_byte", "ns/B", "lower"},
	{"core.decode_ns_per_byte", "ns/B", "lower"},
	{"core.decode_self_ns_per_byte", "ns/B", "lower"},
	{"core.alloc_bytes_per_byte", "B/B", "lower"},
	{"core.cat_roundtrip_us", "us", "lower"},
	{"wire.rtt_us_p50", "us", "lower"},
	{"wire.allocs_per_call", "count", "lower"},
	{"wire.store_ns_per_byte", "ns/B", "lower"},
	{"wire.fetch_ns_per_byte", "ns/B", "lower"},
	{"wire.alloc_bytes_per_byte", "B/B", "lower"},
	{"node.store_blocks_ns_per_byte", "ns/B", "lower"},
	{"node.store_file_ns_per_byte", "ns/B", "lower"},
	{"node.overlap_ratio", "ratio", "higher"},
	{"node.fetch_file_ns_per_byte", "ns/B", "lower"},
	{"node.load_cat_us_p50", "us", "lower"},
	{"node.fetch_block_us_p50", "us", "lower"},
	{"node.calls_per_op", "count", "lower"},
	{"node.probe_calls_per_op", "count", "lower"},
	{"node.call_errors_per_op", "count", "lower"},
	{"node.server_ops_per_op", "count", "lower"},
	{"node.server_handle_us_p50", "us", "lower"},
	{"node.server_handle_us_p99", "us", "lower"},
	{"node.hedge_fires_per_op", "count", "lower"},
	{"node.retries_per_op", "count", "lower"},
	{"node.block_reads_per_op", "count", "lower"},
	{"node.bytes_in_per_user_byte", "B/B", "lower"},
	{"node.bytes_out_per_user_byte", "B/B", "lower"},
	{"node.dials", "count", "lower"},
	{"node.objects_unreadable", "count", "lower"},
	{"node.placement_max_share", "ratio", "lower"},
	{"peerstripe.store_ns_per_byte", "ns/B", "lower"},
	{"peerstripe.store_self_ns_per_byte", "ns/B", "lower"},
	{"peerstripe.open_us_p50", "us", "lower"},
	{"peerstripe.read_cold_ns_per_byte", "ns/B", "lower"},
	{"peerstripe.read_warm_ns_per_byte", "ns/B", "lower"},
	{"peerstripe.readat_1m_cold_us_p50", "us", "lower"},
	{"peerstripe.cache_hit_ratio", "ratio", "higher"},
	{"peerstripe.cache_decodes_per_op", "count", "lower"},
	{"peerstripe.cache_evictions_per_op", "count", "lower"},
	{"peerstripe.decoded_bytes_per_user_byte", "B/B", "lower"},
	{"gateway.put_ns_per_byte", "ns/B", "lower"},
	{"gateway.put_self_ns_per_byte", "ns/B", "lower"},
	{"gateway.get_full_ns_per_byte", "ns/B", "lower"},
	{"gateway.get_self_ns_per_byte", "ns/B", "lower"},
	{"gateway.get_range_us_p50", "us", "lower"},
	{"gateway.get_304_us_p50", "us", "lower"},
	{"gateway.first_byte_us_p50", "us", "lower"},
	{"gateway.allocs_per_get", "count", "lower"},
	{"gateway.errors", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// result is what one run of one workload reports.
type result struct {
	workload  string
	traced    bool
	correct   bool
	attempted int
	failed    int
	problems  []string // steady-state and hygiene checks that failed
	metrics   []metric
	ladder    string // the budget table of a traced run
}

// reading is the cumulative state of everything the harness takes a
// difference of across the timed phase.
type reading struct {
	use      usage
	counters map[string]int64
}

func (r *run) read() reading { return reading{use: readUsage(), counters: r.counters()} }

// phase is the timed phase as measured: what the clients recorded, how
// long it really took, and the readings either side of it.
type phase struct {
	rec           record
	elapsed       time.Duration
	before, after reading
	overhead      float64 // traced runs: throughput lost to span recording, in percent
}

// delta sums, over the timed phase, every counter whose full name
// starts with prefix and contains each of the given label fragments.
func (p *phase) delta(prefix string, contains ...string) float64 {
	var sum int64
next:
	for k, v := range p.after.counters {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		for _, c := range contains {
			if !strings.Contains(k, c) {
				continue next
			}
		}
		sum += v - p.before.counters[k]
	}
	return float64(sum)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// execute runs one workload once: set-up (several times, for a steady
// median), warm-up, the timed phase, the steady-state checks, the
// ladder when traced, and teardown with its leak check.
func execute(cfg config) (*result, error) {
	sp := specByName(cfg.workload)
	if sp == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &result{workload: sp.name, traced: cfg.trace}
	problem := func(err error) { res.problems = append(res.problems, err.Error()) }
	base := runtime.NumGoroutine()

	// Set-up runs at least three times, and up to fifteen while it stays
	// within a fifth of the measuring time: the fast set-ups are the
	// noisy ones, and they can afford the repeats.
	var setups []time.Duration
	var r *run
	for spent := time.Duration(0); ; {
		t0 := time.Now()
		var err error
		if r, err = setUp(cfg, sp); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
		spent += setups[len(setups)-1]
		if len(setups) >= 3 && (len(setups) >= 15 || spent >= seconds(cfg.seconds/5)) {
			break
		}
		r.close()
		if err := awaitGoroutines(base); err != nil {
			problem(err)
		}
	}
	defer r.close()

	// Warm-up, discarded: the online code's memoised compositions, the
	// pools, the connections and the chunk cache fill.
	r.loop(min(5*time.Second, seconds(cfg.seconds/2)))
	r.takeRecords()

	p := r.timedPhase()
	res.attempted, res.failed = p.rec.ops, p.rec.failed
	if len(p.rec.wLat) == 0 || len(p.rec.rLat) == 0 {
		return nil, fmt.Errorf("%s: %d writes and %d reads in %.1f s: too short to measure", sp.name, len(p.rec.wLat), len(p.rec.rLat), cfg.seconds)
	}

	// Steady state: overwrites and deletes must really free space, or
	// the stored-bytes ratio is a lie and memory grows with run length.
	if end := r.storedRatio(); end < 0.95*r.setupRatio || end > 1.05*r.setupRatio {
		problem(fmt.Errorf("stored bytes per live user byte moved from %.4f at end of set-up to %.4f at end of run", r.setupRatio, end))
	}

	defs, values := endToEnd, r.endToEndValues
	if cfg.trace {
		defs, values = perLayer, r.perLayerValues
	}
	v, notes, err := values(p)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		res.ladder = budgetTable(sp, cfg.size(sp.object), v)
	} else {
		v["setup_s"] = medianDuration(setups).Seconds()
		notes["setup_s"] = fmt.Sprintf("median of %d set-ups", len(setups))
	}
	for _, d := range defs {
		value, ok := v[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.metrics = append(res.metrics, metric{name: d.name, value: value, unit: d.unit, note: notes[d.name]})
	}
	if len(v) != len(defs) {
		return nil, fmt.Errorf("%d values measured for %d declared metrics", len(v), len(defs))
	}

	r.close()
	if err := awaitGoroutines(base); err != nil {
		problem(err)
	}
	res.correct = res.failed == 0 && len(res.problems) == 0
	return res, nil
}

// timedPhase drives the clients for the configured time between two
// readings. A traced run spends half the phase without spans and half
// with them: the difference in throughput is the tracing overhead.
func (r *run) timedPhase() *phase {
	p := &phase{before: r.read()}
	if !r.cfg.trace {
		p.elapsed = r.loop(seconds(r.cfg.seconds))
		p.rec = r.takeRecords()
	} else {
		plainTime := r.loop(seconds(r.cfg.seconds / 2))
		plain := r.takeRecords()
		base := time.Now()
		for i, c := range r.clients {
			c.tr = newTracer(base, i+1)
		}
		tracedTime := r.loop(seconds(r.cfg.seconds / 2))
		traced := r.takeRecords()
		rate := func(rc record, d time.Duration) float64 { return float64(rc.wBytes+rc.rBytes) / d.Seconds() }
		p.overhead = 100 * (1 - rate(traced, tracedTime)/rate(plain, plainTime))
		p.elapsed = plainTime + tracedTime
		p.rec = plain.plus(traced)
	}
	p.after = r.read()
	return p
}

func samples(n int) string { return fmt.Sprintf("n=%d", n) }

// endToEndValues turns an untraced phase into the end-to-end metrics
// (all but setup_s, which execute measured).
func (r *run) endToEndValues(p *phase) (map[string]float64, map[string]string, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	user := float64(p.rec.wBytes + p.rec.rBytes)
	ops := float64(p.rec.ops)
	secs := p.elapsed.Seconds()
	use0, use1 := p.before.use, p.after.use
	v := map[string]float64{
		"write_mbps":                 float64(p.rec.wBytes) / 1e6 / secs,
		"read_mbps":                  float64(p.rec.rBytes) / 1e6 / secs,
		"ops_per_s":                  ops / secs,
		"write_p50_ms":               ms(medianDuration(p.rec.wLat)),
		"read_p50_ms":                ms(medianDuration(p.rec.rLat)),
		"cpu_ns_per_byte":            float64(use1.cpu-use0.cpu) / user,
		"alloc_bytes_per_byte":       float64(use1.alloc-use0.alloc) / user,
		"allocs_per_op":              float64(use1.mallocs-use0.mallocs) / ops,
		"peak_rss_mb":                rss,
		"stored_bytes_per_user_byte": r.setupRatio,
		"wire_bytes_per_user_byte":   (p.delta("ps_client_bytes_out_total") + p.delta("ps_client_bytes_in_total")) / user,
	}
	notes := map[string]string{
		"write_p50_ms": samples(len(p.rec.wLat)),
		"read_p50_ms":  samples(len(p.rec.rLat)),
		"peak_rss_mb":  "VmHWM",
	}
	return v, notes, nil
}

// perLayerValues runs the ladder and adds the counters the system
// exported over a traced phase, per operation or per user byte, and
// writes the spans out.
func (r *run) perLayerValues(p *phase) (map[string]float64, map[string]string, error) {
	ladderTracer := newTracer(time.Now(), len(r.clients)+1)
	v, err := runLadder(r, ladderTracer)
	if err != nil {
		return nil, nil, fmt.Errorf("ladder: %w", err)
	}
	user := float64(p.rec.wBytes + p.rec.rBytes)
	ops := float64(p.rec.ops)

	wTail, wPct := tail(sortDurations(p.rec.wLat))
	rTail, rPct := tail(sortDurations(p.rec.rLat))
	v["write_tail_ms"], v["read_tail_ms"] = ms(wTail), ms(rTail)
	notes := map[string]string{
		"write_tail_ms": wPct + " " + samples(len(p.rec.wLat)),
		"read_tail_ms":  rPct + " " + samples(len(p.rec.rLat)),
	}

	v["node.calls_per_op"] = p.delta("ps_client_calls_total") / ops
	v["node.probe_calls_per_op"] = p.delta("ps_client_calls_total", `"getcap`) / ops
	v["node.call_errors_per_op"] = p.delta("ps_client_call_errors_total") / ops
	v["node.server_ops_per_op"] = p.delta("ps_node_ops_total") / ops
	v["node.hedge_fires_per_op"] = p.delta("ps_client_hedge_fires_total") / ops
	v["node.retries_per_op"] = p.delta("ps_client_retries_total") / ops
	v["node.block_reads_per_op"] = p.delta("ps_client_calls_total", `"fetch`) / ops
	v["node.bytes_in_per_user_byte"] = p.delta("ps_client_bytes_in_total") / user
	v["node.bytes_out_per_user_byte"] = p.delta("ps_client_bytes_out_total") / user
	v["node.dials"] = p.delta("ps_client_dials_total")
	v["node.objects_unreadable"] = float64(r.unreadable)
	v["node.placement_max_share"] = r.maxShare
	v["node.server_handle_us_p50"], v["node.server_handle_us_p99"] = r.serverHandle()

	hits, misses, decodes := p.delta("ps_cache_hits_total"), p.delta("ps_cache_misses_total"), p.delta("ps_cache_decodes_total")
	v["peerstripe.cache_hit_ratio"] = hits / max(1, hits+misses)
	v["peerstripe.cache_decodes_per_op"] = decodes / ops
	v["peerstripe.cache_evictions_per_op"] = p.delta("ps_cache_evictions_total") / ops
	// Read amplification at the 16 MiB chunk cap: a decode always
	// produces a whole chunk, however little of it was asked for.
	v["peerstripe.decoded_bytes_per_user_byte"] = decodes * float64(min(r.cfg.size(r.spec.object), 16<<20)) / user
	v["gateway.errors"] += p.delta(gatewayErrors)
	v["trace.overhead_pct"] = p.overhead

	tracers := []*tracer{ladderTracer}
	for _, c := range r.clients {
		tracers = append(tracers, c.tr)
	}
	if err := writeTrace(r.cfg.outDir, r.spec.name, tracers...); err != nil {
		return nil, nil, fmt.Errorf("write trace: %w", err)
	}
	return v, notes, nil
}

// serverHandle summarises the nodes' request-handling latency. The
// public snapshot gives each node's percentiles since it started, not
// mergeable buckets, so this is the median over nodes of their p50 and
// the worst node's p99, set-up and warm-up included.
func (r *run) serverHandle() (p50, p99 float64) {
	var p50s []time.Duration
	for _, n := range r.nodes {
		l := n.Metrics().Latencies["ps_node_handle_seconds"]
		p50s = append(p50s, l.P50)
		p99 = max(p99, us(l.P99))
	}
	return us(medianDuration(p50s)), p99
}
