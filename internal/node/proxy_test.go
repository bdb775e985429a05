package node

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/ids"
	"peerstripe/internal/wire"
)

// flakyProxy is a fault-injection TCP proxy: it forwards connections
// to a backend node, delaying the response stream by a per-connection
// latency drawn from a seeded RNG, and can go dark — refusing new
// connections and severing established ones, exactly what a failed or
// partitioned node looks like to a client.
//
// Two further fault modes shape the failure-detector tests:
//
//   - blackhole: connections are accepted but never forwarded, so the
//     caller's request hangs until its own timeout — what one broken
//     route of an asymmetric partition looks like (other nodes, using
//     a different address for the same member, get through fine).
//   - dropProb: with the given seeded probability a connection is
//     severed shortly after establishment, so frames probabilistically
//     vanish mid-exchange — a lossy but not dead link, which must
//     cause retries and suspicion at worst, never an eviction.
type flakyProxy struct {
	ln net.Listener

	mu       sync.Mutex
	backend  string
	rng      *rand.Rand
	maxDelay time.Duration
	dropProb float64
	conns    map[net.Conn]struct{}

	dark      atomic.Bool
	blackhole atomic.Bool
	respBytes atomic.Int64 // response bytes forwarded so far
	stallAt   atomic.Int64 // respBytes threshold to freeze responses at (0: off)
	slowNs    atomic.Int64 // per-write response latency (ns)
	wg        sync.WaitGroup
}

func newFlakyProxy(t testing.TB, backend string, seed int64, maxDelay time.Duration) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{
		ln:       ln,
		backend:  backend,
		rng:      rand.New(rand.NewSource(seed)),
		maxDelay: maxDelay,
		conns:    make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	t.Cleanup(p.close)
	return p
}

func (p *flakyProxy) addr() string { return p.ln.Addr().String() }

// setBackend re-points the proxy. Creating a proxy with an empty
// backend and setting it after the node exists lets the node advertise
// the proxy's address (the chicken-and-egg of proxy-routed rings).
func (p *flakyProxy) setBackend(addr string) {
	p.mu.Lock()
	p.backend = addr
	p.mu.Unlock()
}

// goDark severs the node: established connections die, new ones are
// refused with an immediate close.
func (p *flakyProxy) goDark() {
	p.dark.Store(true)
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// setBlackhole toggles the hung-route mode: accept, never forward.
// Unlike goDark, the caller sees no connection refusal — only silence.
func (p *flakyProxy) setBlackhole(on bool) { p.blackhole.Store(on) }

// stallResponsesAfter freezes the response path once n more bytes have
// flowed: connections stay open, requests keep arriving, and the
// answers stop mid-transfer — the silent-laggard failure mode the
// hedged fetch path must race rather than wait out. close()/goDark()
// releases the frozen forwarders.
func (p *flakyProxy) stallResponsesAfter(n int64) {
	p.stallAt.Store(p.respBytes.Load() + n)
}

// throttleResponses injects d of latency before every response write —
// a slow but moving sink/source, which stall detection must spare.
func (p *flakyProxy) throttleResponses(d time.Duration) {
	p.slowNs.Store(int64(d))
}

// copyResponses forwards backend→client while honoring the throttle
// and mid-stream stall knobs (io.Copy would forward regardless).
func (p *flakyProxy) copyResponses(dst, src net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if d := p.slowNs.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			for {
				at := p.stallAt.Load()
				if at == 0 || p.respBytes.Load() < at {
					break
				}
				if p.dark.Load() {
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			p.respBytes.Add(int64(n))
		}
		if err != nil {
			return
		}
	}
}

// setDropProb sets the per-connection severance probability (seeded,
// so a given proxy's drop sequence reproduces run to run).
func (p *flakyProxy) setDropProb(prob float64) {
	p.mu.Lock()
	p.dropProb = prob
	p.mu.Unlock()
}

func (p *flakyProxy) close() {
	p.ln.Close()
	p.goDark()
	p.wg.Wait()
}

func (p *flakyProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.dark.Load() {
			conn.Close()
			continue
		}
		p.mu.Lock()
		delay := time.Duration(p.rng.Int63n(int64(p.maxDelay) + 1))
		sever := time.Duration(0)
		if p.dropProb > 0 && p.rng.Float64() < p.dropProb {
			// Sever shortly after establishment: whatever frames are in
			// flight then are lost, and the peer must redial.
			sever = delay + time.Duration(p.rng.Int63n(int64(2*time.Millisecond)))
		}
		p.conns[conn] = struct{}{}
		p.mu.Unlock()
		if p.blackhole.Load() {
			// Hold the connection open without forwarding: the caller's
			// request disappears into the broken route until it times
			// out. close()/goDark() releases the held connections.
			continue
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.forward(conn, delay, sever)
		}()
	}
}

func (p *flakyProxy) forward(client net.Conn, delay, sever time.Duration) {
	defer func() {
		client.Close()
		p.mu.Lock()
		delete(p.conns, client)
		p.mu.Unlock()
	}()
	p.mu.Lock()
	backendAddr := p.backend
	p.mu.Unlock()
	if backendAddr == "" {
		return
	}
	backend, err := net.DialTimeout("tcp", backendAddr, 2*time.Second)
	if err != nil {
		return
	}
	defer backend.Close()
	if sever > 0 {
		timer := time.AfterFunc(sever, func() {
			client.Close()
			backend.Close()
		})
		defer timer.Stop()
	}
	p.mu.Lock()
	p.conns[backend] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.conns, backend)
		p.mu.Unlock()
	}()
	done := make(chan struct{}, 2)
	go func() {
		io.Copy(backend, client) //nolint:errcheck
		backend.(*net.TCPConn).CloseWrite()
		done <- struct{}{}
	}()
	go func() {
		// The injected latency sits on the response path, where a slow
		// disk or congested uplink would put it.
		time.Sleep(delay)
		p.copyResponses(client, backend)
		client.(*net.TCPConn).CloseWrite()
		done <- struct{}{}
	}()
	<-done
	<-done
}

// proxiedRing starts n standalone storage nodes with deterministic,
// evenly spaced ring IDs and a flaky proxy in front of each, and
// returns the client-side membership view that routes through the
// proxies. Placement is a pure function of the fixed IDs and block
// names, so victim selection below is deterministic run to run.
func proxiedRing(t testing.TB, n int, capacity int64, seed int64, maxDelay time.Duration) ([]*Server, []*flakyProxy, []wire.NodeInfo) {
	t.Helper()
	servers := make([]*Server, n)
	proxies := make([]*flakyProxy, n)
	ring := make([]wire.NodeInfo, n)
	for i := 0; i < n; i++ {
		var id ids.ID
		id[0] = byte(i * 256 / n)
		s, err := NewServerID("127.0.0.1:0", id, capacity, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		servers[i] = s
		proxies[i] = newFlakyProxy(t, s.Addr(), seed+int64(i), maxDelay)
		ring[i] = wire.NodeInfo{ID: id, Addr: proxies[i].addr()}
	}
	return servers, proxies, ring
}

// safeVictim returns the index of a ring member whose loss every chunk
// of every listed file survives: it owns at most tolerance blocks per
// chunk and at least one CAT replica of each file lives elsewhere.
func safeVictim(ring []wire.NodeInfo, files map[string]int, m, tolerance, catReplicas int) int {
	owner := func(name string) int { return ownerIndex(ring, name) }
	for cand := range ring {
		ok := true
		for file, chunks := range files {
			for ci := 0; ci < chunks && ok; ci++ {
				held := 0
				for e := 0; e < m; e++ {
					if owner(core.BlockName(file, ci, e)) == cand {
						held++
					}
				}
				if held > tolerance {
					ok = false
				}
			}
			catElsewhere := 0
			for r := 0; r <= catReplicas; r++ {
				if owner(core.ReplicaName(core.CATName(file), r)) != cand {
					catElsewhere++
				}
			}
			if catElsewhere == 0 {
				ok = false
			}
			if !ok {
				break
			}
		}
		if ok {
			return cand
		}
	}
	return -1
}

// TestLiveDegradedReadThroughFaultProxy drives the hedged-fetch path
// deterministically: a seeded latency proxy fronts every node, one
// owner goes dark after the store, and FetchFile must still return the
// exact bytes — no Repair, no ring refresh — because each chunk
// decodes from any sufficient subset of its blocks.
func TestLiveDegradedReadThroughFaultProxy(t *testing.T) {
	const (
		nodes    = 6
		fileName = "proxy-degraded.dat"
		size     = 600 << 10
		chunkCap = 64 << 10
	)
	_, proxies, ring := proxiedRing(t, nodes, 1<<30, 42, 15*time.Millisecond)
	code := erasure.MustXOR(2)

	c := NewStaticClientCfg(ring, code, Config{
		ChunkCap:   chunkCap,
		Timeout:    3 * time.Second,
		HedgeDelay: 30 * time.Millisecond,
	})
	defer c.Close()

	data := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(data)
	cat, err := c.StoreFile(fileName, data)
	if err != nil {
		t.Fatal(err)
	}

	// ChunkCap pins the layout, so the chunk count is known.
	chunks := cat.NumChunks()
	if chunks < 8 {
		t.Fatalf("layout too coarse for the test: %d chunks", chunks)
	}
	victim := safeVictim(ring, map[string]int{fileName: chunks},
		code.EncodedBlocks(), code.EncodedBlocks()-code.MinNeeded(), c.Config().CATReplicas)
	if victim < 0 {
		t.Fatal("no safe victim in deterministic placement — adjust node count or file name")
	}

	proxies[victim].goDark()

	got, err := c.FetchFile(fileName)
	if err != nil {
		t.Fatalf("degraded fetch with %s dark: %v", ring[victim].Addr, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded fetch returned wrong bytes")
	}

	// A ranged read exercises the same path per chunk.
	part, err := c.FetchRange(fileName, 100_000, 50_000)
	if err != nil || !bytes.Equal(part, data[100_000:150_000]) {
		t.Fatalf("degraded ranged read: %v", err)
	}
}

// TestLiveFetchAllProxiesSlow checks the latency arm of the fault
// proxy: every response delayed, nothing dark — the read must simply
// succeed within the hedged budget.
func TestLiveFetchAllProxiesSlow(t *testing.T) {
	_, _, ring := proxiedRing(t, 4, 1<<30, 99, 25*time.Millisecond)
	c := NewStaticClientCfg(ring, erasure.MustXOR(2), Config{
		ChunkCap:   64 << 10,
		Timeout:    5 * time.Second,
		HedgeDelay: 20 * time.Millisecond,
	})
	defer c.Close()

	data := make([]byte, 200<<10)
	rand.New(rand.NewSource(8)).Read(data)
	if _, err := c.StoreFile("slow.dat", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.FetchFile("slow.dat")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fetch over slow proxies: %v", err)
	}
}
