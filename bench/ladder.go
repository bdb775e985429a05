package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"peerstripe"
	"peerstripe/gateway"
	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/node"
	"peerstripe/internal/wire"
)

// The layer ladder pushes one seeded object of the workload's size and
// code through each layer's exported entry points, bottom-up: erasure,
// core, wire, node, peerstripe, gateway. Every rung runs on the
// workload's own ring after its timed phase, with nothing else running,
// and reports the median of its repetitions. A rung's self time is its
// median minus the rung beneath it on the same input — an approximation
// from outside that the in-program spans of ROADMAP item 5 will replace.
type ladder struct {
	r      *run
	tr     *tracer
	budget time.Duration // per rung
	size   int64         // object bytes
	chunk  int64         // bytes of the object's first chunk
	data   []byte        // the object, whole: the layers below Store take slices
	obj    *object
	buf    []byte             // copy buffer; holds a ranged read whole
	want   []byte             // the expected bytes of a range
	v      map[string]float64 // metric name -> value
	parent int64              // span of the rung above
}

const ladderReps = 20

// repeat runs fn until ladderReps repetitions or the rung's budget is
// spent, and never fewer than three times.
func (l *ladder) repeat(fn func() error) error {
	deadline := time.Now().Add(l.budget)
	for i := 0; i < ladderReps && (i < 3 || time.Now().Before(deadline)); i++ {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// timed runs fn under a span and appends how long it took to dst.
func (l *ladder) timed(dst *[]time.Duration, layer, name string, n int64, fn func() error) error {
	s := l.tr.begin(l.parent, layer, name)
	t0 := time.Now()
	err := fn()
	*dst = append(*dst, time.Since(t0))
	l.tr.end(s, n)
	if err != nil {
		return fmt.Errorf("%s %s: %w", layer, name, err)
	}
	return nil
}

// rung opens the span that groups one layer's repetitions, parented to
// the rung above, and returns the function that closes it.
func (l *ladder) rung(layer string) func() {
	s := l.tr.begin(l.parent, layer, "rung")
	l.parent = s
	return func() { l.tr.end(s, 0) }
}

func nsPerByte(d []time.Duration, n int64) float64 {
	return float64(medianDuration(d)) / float64(n)
}

func selfTime(above, below float64) float64 { return max(0, above-below) }

// runLadder measures every rung and returns the per-layer metrics.
func runLadder(r *run, tr *tracer) (map[string]float64, error) {
	size := jitter(rand.New(rand.NewSource(r.cfg.seed)), r.cfg.size(r.spec.object))
	l := &ladder{
		r: r, tr: tr, size: size,
		budget: time.Duration(r.cfg.seconds / 8 * float64(time.Second)),
		obj:    newObject(r.cfg.seed, r.objectName("ladder"), 0, size),
		buf:    make([]byte, 1<<20),
		want:   make([]byte, 1<<20),
		v:      make(map[string]float64),
	}
	l.data = l.obj.fillBytes(make([]byte, size))
	l.chunk = core.PlanChunkSizes(size, peerstripe.DefaultChunkCap)[0]
	code, err := core.CodeFor(r.spec.code, "")
	if err != nil {
		return nil, err
	}
	for _, rung := range []func(erasure.Code) error{l.erasure, l.core, l.wire, l.node, l.peerstripe, l.gateway} {
		if err := rung(code); err != nil {
			return nil, err
		}
	}
	v := l.v
	v["core.encode_self_ns_per_byte"] = selfTime(v["core.encode_ns_per_byte"], v["erasure.encode_ns_per_byte"])
	v["core.decode_self_ns_per_byte"] = selfTime(v["core.decode_ns_per_byte"], v["erasure.decode_clean_ns_per_byte"])
	// Encode and upload are pipelined inside StoreReader, so a self
	// time would come out negative; the ladder reports how much of the
	// serial cost the overlap hides instead (> 1: overlap is paying).
	v["node.overlap_ratio"] = (v["core.encode_ns_per_byte"] + v["node.store_blocks_ns_per_byte"]) / v["node.store_file_ns_per_byte"]
	v["peerstripe.store_self_ns_per_byte"] = selfTime(v["peerstripe.store_ns_per_byte"], v["node.store_file_ns_per_byte"])
	v["gateway.put_self_ns_per_byte"] = selfTime(v["gateway.put_ns_per_byte"], v["peerstripe.store_ns_per_byte"])
	v["gateway.get_self_ns_per_byte"] = selfTime(v["gateway.get_full_ns_per_byte"], v["peerstripe.read_warm_ns_per_byte"])
	return v, nil
}

func (l *ladder) erasure(code erasure.Code) error {
	defer l.rung("erasure")()
	chunk := l.data[:l.chunk]
	var enc, clean, degraded []time.Duration
	var blocks []erasure.Block
	err := l.repeat(func() error {
		return l.timed(&enc, "erasure", "Encode", l.chunk, func() (err error) {
			blocks, err = code.Encode(chunk)
			return err
		})
	})
	if err != nil {
		return err
	}
	alloc, _ := allocDelta(func() { code.Encode(chunk) }) //nolint:errcheck // succeeded above
	decode := func(dst *[]time.Duration, name string, from []erasure.Block) error {
		return l.repeat(func() error {
			return l.timed(dst, "erasure", name, l.chunk, func() error {
				got, err := code.Decode(from, int(l.chunk))
				if err == nil && !bytes.Equal(got, chunk) {
					err = fmt.Errorf("decoded chunk differs from the input")
				}
				return err
			})
		})
	}
	if err := decode(&clean, "Decode clean", blocks); err != nil {
		return err
	}
	// Degraded: the lowest-numbered blocks (the data blocks, where the
	// code has them) are withheld until only MinNeeded remain.
	if err := decode(&degraded, "Decode degraded", blocks[len(blocks)-code.MinNeeded():]); err != nil {
		return err
	}
	l.v["erasure.encode_ns_per_byte"] = nsPerByte(enc, l.chunk)
	l.v["erasure.encode_alloc_bytes_per_byte"] = float64(alloc) / float64(l.chunk)
	l.v["erasure.decode_clean_ns_per_byte"] = nsPerByte(clean, l.chunk)
	l.v["erasure.decode_degraded_ns_per_byte"] = nsPerByte(degraded, l.chunk)
	return nil
}

func (l *ladder) core(code erasure.Code) error {
	defer l.rung("core")()
	codec := &core.Codec{Code: code}
	plan := core.PlanChunkSizes(l.size, peerstripe.DefaultChunkCap)
	discard := func(int, []core.NamedBlock) error { return nil }
	var enc, dec, catRT []time.Duration
	err := l.repeat(func() error {
		return l.timed(&enc, "core", "EncodeChunks", l.size, func() error {
			_, err := codec.EncodeChunks(bg, l.obj.name, l.data, plan, discard)
			return err
		})
	})
	if err != nil {
		return err
	}
	alloc, _ := allocDelta(func() { codec.EncodeChunks(bg, l.obj.name, l.data, plan, discard) }) //nolint:errcheck // succeeded above

	blocks, cat, err := codec.EncodeFile(bg, l.obj.name, l.data, plan)
	if err != nil {
		return err
	}
	held := make(map[string][]byte, len(blocks))
	for _, b := range blocks {
		held[b.Name] = b.Data
	}
	fetch := func(name string) ([]byte, bool) {
		b, ok := held[name]
		return b, ok
	}
	err = l.repeat(func() error {
		return l.timed(&dec, "core", "DecodeFile", l.size, func() error {
			got, err := codec.DecodeFile(bg, cat, fetch)
			if err == nil && !bytes.Equal(got, l.data) {
				err = fmt.Errorf("decoded file differs from the input")
			}
			return err
		})
	})
	if err != nil {
		return err
	}
	const inner = 100 // a CAT round trip is microseconds: time a batch
	err = l.repeat(func() error {
		return l.timed(&catRT, "core", "CAT round trip x100", 0, func() error {
			for i := 0; i < inner; i++ {
				if _, err := core.UnmarshalCAT(cat.File, cat.Marshal()); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	l.v["core.encode_ns_per_byte"] = nsPerByte(enc, l.size)
	l.v["core.decode_ns_per_byte"] = nsPerByte(dec, l.size)
	l.v["core.alloc_bytes_per_byte"] = float64(alloc) / float64(l.size)
	l.v["core.cat_roundtrip_us"] = us(medianDuration(catRT)) / inner
	return nil
}

// wire times the frame/mux layer alone: a pooled client against an
// echo/discard handler on loopback, with block-sized payloads.
func (l *ladder) wire(code erasure.Code) error {
	defer l.rung("wire")()
	block := l.data[:(l.chunk+int64(code.DataBlocks())-1)/int64(code.DataBlocks())]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	handler := func(req *wire.Request) *wire.Response {
		if req.Op == wire.OpFetch {
			return &wire.Response{OK: true, Data: block}
		}
		return &wire.Response{OK: true}
	}
	var serving sync.WaitGroup
	serving.Add(1)
	go func() {
		defer serving.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			serving.Add(1)
			go func() {
				defer serving.Done()
				defer conn.Close()
				wire.Serve(conn, handler, 0)
			}()
		}
	}()
	pool := wire.NewPool()
	defer func() {
		pool.Close()
		ln.Close()
		serving.Wait()
	}()
	addr := ln.Addr().String()
	call := func(req *wire.Request) error {
		_, err := pool.CallCtx(bg, addr, req, wire.DefaultTimeout)
		return err
	}
	ping := &wire.Request{Op: wire.OpPing}
	store := &wire.Request{Op: wire.OpStore, Name: "block", Data: block}
	fetch := &wire.Request{Op: wire.OpFetch, Name: "block"}
	n := int64(len(block))

	const inner = 50
	var rtt, st, ft []time.Duration
	err = l.repeat(func() error {
		return l.timed(&rtt, "wire", "ping x50", 0, func() error {
			for i := 0; i < inner; i++ {
				if err := call(ping); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	_, objects := allocDelta(func() {
		for i := 0; i < inner; i++ {
			call(ping) //nolint:errcheck // succeeded above
		}
	})
	if err := l.repeat(func() error { return l.timed(&st, "wire", "store block", n, func() error { return call(store) }) }); err != nil {
		return err
	}
	if err := l.repeat(func() error { return l.timed(&ft, "wire", "fetch block", n, func() error { return call(fetch) }) }); err != nil {
		return err
	}
	alloc, _ := allocDelta(func() {
		call(store) //nolint:errcheck // succeeded above
		call(fetch) //nolint:errcheck // succeeded above
	})
	l.v["wire.rtt_us_p50"] = us(medianDuration(rtt)) / inner
	l.v["wire.allocs_per_call"] = float64(objects) / inner
	l.v["wire.store_ns_per_byte"] = nsPerByte(st, n)
	l.v["wire.fetch_ns_per_byte"] = nsPerByte(ft, n)
	l.v["wire.alloc_bytes_per_byte"] = float64(alloc) / float64(2*n)
	return nil
}

// node drives the node client's entry points against the workload's
// ring: upload of pre-encoded blocks alone, the streaming store, the
// whole-file fetch, and the two small reads every operation pays for.
func (l *ladder) node(code erasure.Code) error {
	defer l.rung("node")()
	nc, err := node.NewClientCfg(bg, l.r.nodes[0].Addr(), code, node.Config{})
	if err != nil {
		return err
	}
	defer nc.Close()
	// The seed still lists a node the workload killed.
	if _, err := nc.PruneRingCtx(bg); err != nil {
		return err
	}
	plan := core.PlanChunkSizes(l.size, peerstripe.DefaultChunkCap)
	pre, file := l.obj.name+".blocks", l.obj.name+".file"
	blocks, cat, err := (&core.Codec{Code: code}).EncodeFile(bg, pre, l.data, plan)
	if err != nil {
		return err
	}
	var sb, sf, ff, lc, fb []time.Duration
	err = l.repeat(func() error {
		return l.timed(&sb, "node", "StoreBlocksCtx", l.size, func() error { return nc.StoreBlocksCtx(bg, cat, blocks) })
	})
	if err != nil {
		return err
	}
	err = l.repeat(func() error {
		return l.timed(&sf, "node", "StoreReader", l.size, func() error {
			_, err := nc.StoreReader(bg, file, bytes.NewReader(l.data), plan)
			return err
		})
	})
	if err != nil {
		return err
	}
	err = l.repeat(func() error {
		return l.timed(&ff, "node", "FetchFileCtx", l.size, func() error {
			got, err := nc.FetchFileCtx(bg, file)
			if err == nil && !bytes.Equal(got, l.data) {
				err = fmt.Errorf("fetched file differs from the input")
			}
			return err
		})
	})
	if err != nil {
		return err
	}
	err = l.repeat(func() error {
		return l.timed(&lc, "node", "LoadCATCtx", 0, func() error {
			_, err := nc.LoadCATCtx(bg, file)
			return err
		})
	})
	if err != nil {
		return err
	}
	first := core.BlockName(file, 0, 0)
	err = l.repeat(func() error {
		return l.timed(&fb, "node", "FetchBlock", 0, func() error {
			_, err := nc.FetchBlock(first)
			return err
		})
	})
	if err != nil {
		return err
	}
	for _, name := range []string{pre, file} {
		if err := nc.DeleteFileCtx(bg, name); err != nil {
			return err
		}
	}
	l.v["node.store_blocks_ns_per_byte"] = nsPerByte(sb, l.size)
	l.v["node.store_file_ns_per_byte"] = nsPerByte(sf, l.size)
	l.v["node.fetch_file_ns_per_byte"] = nsPerByte(ff, l.size)
	l.v["node.load_cat_us_p50"] = us(medianDuration(lc))
	l.v["node.fetch_block_us_p50"] = us(medianDuration(fb))
	return nil
}

// readAll copies f into a checksumming sink and checks it against the
// ladder's object.
func (l *ladder) readAll(f io.Reader) error {
	var w sumWriter
	if _, err := io.CopyBuffer(&w, f, l.buf); err != nil {
		return err
	}
	return l.obj.checkFull(&w)
}

// peerstripe drives the public client. Each repetition stores the
// object (which drops its cached chunks), reads it cold, reads it
// again warm, then stores once more to time a cold 1 MiB ReadAt.
func (l *ladder) peerstripe(erasure.Code) error {
	defer l.rung("peerstripe")()
	cl := l.r.cl
	name := l.obj.name
	var st, op, cold, warm, at []time.Duration
	store := func() error {
		_, err := cl.Store(bg, name, bytes.NewReader(l.data), l.size)
		return err
	}
	read := func(dst *[]time.Duration, what string) error {
		var f *peerstripe.File
		err := l.timed(&op, "peerstripe", "Open", 0, func() (err error) {
			f, err = cl.Open(bg, name)
			return err
		})
		if err != nil {
			return err
		}
		defer f.Close()
		return l.timed(dst, "peerstripe", what, l.size, func() error { return l.readAll(f) })
	}
	span := min(l.r.cfg.size(degradedRange), l.size)
	buf := l.buf[:span]
	err := l.repeat(func() error {
		if err := l.timed(&st, "peerstripe", "Store", l.size, store); err != nil {
			return err
		}
		if err := read(&cold, "Read cold"); err != nil {
			return err
		}
		if err := read(&warm, "Read warm"); err != nil {
			return err
		}
		if err := store(); err != nil {
			return err
		}
		f, err := cl.Open(bg, name)
		if err != nil {
			return err
		}
		defer f.Close()
		return l.timed(&at, "peerstripe", "ReadAt cold", span, func() error {
			if _, err := f.ReadAt(buf, 0); err != nil {
				return err
			}
			return l.obj.checkRange(buf, 0, l.want)
		})
	})
	if err != nil {
		return err
	}
	if err := cl.Delete(bg, name); err != nil {
		return err
	}
	l.v["peerstripe.store_ns_per_byte"] = nsPerByte(st, l.size)
	l.v["peerstripe.open_us_p50"] = us(medianDuration(op))
	l.v["peerstripe.read_cold_ns_per_byte"] = nsPerByte(cold, l.size)
	l.v["peerstripe.read_warm_ns_per_byte"] = nsPerByte(warm, l.size)
	l.v["peerstripe.readat_1m_cold_us_p50"] = us(medianDuration(at))
	return nil
}

// gateway drives a gateway of its own over the workload's client, with
// one keep-alive connection.
func (l *ladder) gateway(erasure.Code) error {
	defer l.rung("gateway")()
	gw := gateway.New(l.r.cl, gateway.Config{})
	srv := httptest.NewServer(gw)
	defer srv.Close()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	url := srv.URL + "/" + l.obj.name
	etag := ""

	// do issues one request and checks status and, where given, the body.
	do := func(method string, body io.Reader, header, value string, want int, check func(io.Reader) error) error {
		req, err := http.NewRequest(method, url, body)
		if err != nil {
			return err
		}
		if body != nil {
			req.ContentLength = l.size
		}
		if header != "" {
			req.Header.Set(header, value)
		}
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			return fmt.Errorf("%s: status %d, want %d", method, resp.StatusCode, want)
		}
		if tag := resp.Header.Get("ETag"); tag != "" {
			etag = tag
		}
		if check != nil {
			return check(resp.Body)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	span := min(l.r.cfg.size(gatewayRange), l.size)
	rangeHeader := fmt.Sprintf("bytes=0-%d", span-1)
	rangeCheck := func(body io.Reader) error {
		got := l.buf[:span]
		if _, err := io.ReadFull(body, got); err != nil {
			return err
		}
		return l.obj.checkRange(got, 0, l.want)
	}
	getRange := func() error {
		if span == l.size {
			return do(http.MethodGet, nil, "", "", http.StatusOK, rangeCheck)
		}
		return do(http.MethodGet, nil, "Range", rangeHeader, http.StatusPartialContent, rangeCheck)
	}

	var put, full, first, rng, cond []time.Duration
	err := l.repeat(func() error {
		err := l.timed(&put, "gateway", "PUT", l.size, func() error {
			return do(http.MethodPut, bytes.NewReader(l.data), "", "", http.StatusCreated, nil)
		})
		if err != nil {
			return err
		}
		// The first GET after a PUT decodes; the second is the warm
		// one the rung reports, so that gateway − peerstripe.read_warm
		// is the HTTP path alone.
		if err := do(http.MethodGet, nil, "", "", http.StatusOK, l.readAll); err != nil {
			return err
		}
		t0 := time.Now()
		err = l.timed(&full, "gateway", "GET full warm", l.size, func() error {
			return do(http.MethodGet, nil, "", "", http.StatusOK, func(body io.Reader) error {
				var one [1]byte
				if _, err := io.ReadFull(body, one[:]); err != nil {
					return err
				}
				first = append(first, time.Since(t0))
				return l.readAll(io.MultiReader(bytes.NewReader(one[:]), body))
			})
		})
		if err != nil {
			return err
		}
		if err := l.timed(&rng, "gateway", "GET range warm", span, getRange); err != nil {
			return err
		}
		return l.timed(&cond, "gateway", "GET conditional", 0, func() error {
			return do(http.MethodGet, nil, "If-None-Match", etag, http.StatusNotModified, nil)
		})
	})
	if err != nil {
		return err
	}
	const gets = 20
	_, objects := allocDelta(func() {
		for i := 0; i < gets; i++ {
			getRange() //nolint:errcheck // succeeded above
		}
	})
	if err := do(http.MethodDelete, nil, "", "", http.StatusNoContent, nil); err != nil {
		return err
	}
	l.v["gateway.put_ns_per_byte"] = nsPerByte(put, l.size)
	l.v["gateway.get_full_ns_per_byte"] = nsPerByte(full, l.size)
	l.v["gateway.first_byte_us_p50"] = us(medianDuration(first))
	l.v["gateway.get_range_us_p50"] = us(medianDuration(rng))
	l.v["gateway.get_304_us_p50"] = us(medianDuration(cond))
	l.v["gateway.allocs_per_get"] = float64(objects) / gets
	l.v["gateway.errors"] = float64(gw.Stats().Errors)
	return nil
}

// budgetTable renders the ladder as the itemised budget of one store
// and one read of the workload's object: each rung's cost per byte and
// per operation, its self time, and its share of the top rung.
func budgetTable(sp *spec, size int64, v map[string]float64) string {
	type row struct{ rung, metric, below string }
	write := []row{
		{"erasure.Encode", "erasure.encode_ns_per_byte", ""},
		{"core.EncodeChunks", "core.encode_ns_per_byte", "erasure.encode_ns_per_byte"},
		{"wire store (payload only)", "wire.store_ns_per_byte", ""},
		{"node.StoreBlocksCtx", "node.store_blocks_ns_per_byte", ""},
		{"node.StoreReader", "node.store_file_ns_per_byte", ""},
		{"peerstripe.Store", "peerstripe.store_ns_per_byte", "node.store_file_ns_per_byte"},
		{"gateway PUT", "gateway.put_ns_per_byte", "peerstripe.store_ns_per_byte"},
	}
	read := []row{
		{"erasure.Decode", "erasure.decode_clean_ns_per_byte", ""},
		{"core.DecodeFile", "core.decode_ns_per_byte", "erasure.decode_clean_ns_per_byte"},
		{"wire fetch (payload only)", "wire.fetch_ns_per_byte", ""},
		{"node.FetchFileCtx", "node.fetch_file_ns_per_byte", "core.decode_ns_per_byte"},
		{"peerstripe read cold", "peerstripe.read_cold_ns_per_byte", "node.fetch_file_ns_per_byte"},
		{"peerstripe read warm", "peerstripe.read_warm_ns_per_byte", ""},
		{"gateway GET warm", "gateway.get_full_ns_per_byte", "peerstripe.read_warm_ns_per_byte"},
	}
	var b strings.Builder
	section := func(title string, rows []row, top string) {
		fmt.Fprintf(&b, "%s of one %.1f MiB %s object (share is of %s)\n", title, float64(size)/(1<<20), sp.code, top)
		fmt.Fprintf(&b, "  %-28s %10s %12s %12s %8s\n", "rung", "ns/byte", "us/op", "self ns/B", "share")
		for _, r := range rows {
			self := "-"
			if r.below != "" {
				self = fmt.Sprintf("%.3f", selfTime(v[r.metric], v[r.below]))
			}
			fmt.Fprintf(&b, "  %-28s %10.3f %12.0f %12s %7.1f%%\n", r.rung, v[r.metric], v[r.metric]*float64(size)/1e3, self, 100*v[r.metric]/v[top])
		}
	}
	topW, topR := "peerstripe.store_ns_per_byte", "peerstripe.read_cold_ns_per_byte"
	if sp.gateway {
		topW, topR = "gateway.put_ns_per_byte", "gateway.get_full_ns_per_byte"
	}
	section("store", write, topW)
	section("read", read, topR)
	fmt.Fprintf(&b, "  node.overlap_ratio %.2f: (core.encode + node.store_blocks) / node.store_file; above 1, encode/upload overlap is paying\n", v["node.overlap_ratio"])
	return b.String()
}
