package node

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"testing"
	"time"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/wire"
)

// rangedRig is a proxied xor(2) ring holding one multi-chunk file, and
// one partial-chunk read aimed at a data block whose holder, and the
// holders of the two other blocks of its chunk, are three different
// nodes — so a test can fail each of them on its own.
type rangedRig struct {
	servers []*Server
	proxies []*flakyProxy
	ring    []wire.NodeInfo
	c       *Client
	cat     *core.CAT
	data    []byte

	ci     int    // the chunk read
	owners [3]int // ring index of the holder of block 0, 1, 2 of it
}

const (
	rangedFile     = "ranged-faults.dat"
	rangedChunk    = 64 << 10
	rangedLo       = 1000 // the read: bytes [1000, 21000) of chunk ci,
	rangedLen      = 20000
	rangedHedge    = 40 * time.Millisecond
	rangedTimeout  = 4 * time.Second
	rangedDeadline = rangedTimeout / 2 // "well inside Timeout"
)

func rangedConfig() Config {
	return Config{ChunkCap: rangedChunk, Timeout: rangedTimeout, HedgeDelay: rangedHedge}
}

func newRangedRig(t *testing.T) *rangedRig {
	t.Helper()
	rig := &rangedRig{data: make([]byte, 8*rangedChunk)}
	rig.servers, rig.proxies, rig.ring = proxiedRing(t, 6, 1<<30, 77, 0)
	rig.c = NewStaticClientCfg(rig.ring, erasure.MustXOR(2), rangedConfig())
	t.Cleanup(rig.c.Close)
	rand.New(rand.NewSource(78)).Read(rig.data)
	cat, err := rig.c.StoreFile(rangedFile, rig.data)
	if err != nil {
		t.Fatal(err)
	}
	rig.cat = cat
	for ci := range cat.Rows {
		o := [3]int{}
		for e := range o {
			o[e] = ownerIndex(rig.ring, core.BlockName(rangedFile, ci, e))
		}
		if o[0] != o[1] && o[0] != o[2] && o[1] != o[2] {
			rig.ci, rig.owners = ci, o
			return rig
		}
	}
	t.Fatal("no chunk with three distinct block owners in the deterministic placement — adjust the node count or file name")
	return nil
}

// read runs the rig's partial-chunk read on c and checks the bytes of a
// successful one.
func (rig *rangedRig) read(t *testing.T, ctx context.Context, c *Client) error {
	t.Helper()
	dst := make([]byte, rangedLen)
	if err := c.FetchChunkRange(ctx, rig.cat, rig.ci, rangedLo, dst); err != nil {
		return err
	}
	at := rig.cat.Rows[rig.ci].Start + rangedLo
	if !bytes.Equal(dst, rig.data[at:at+rangedLen]) {
		t.Fatal("ranged read returned wrong bytes")
	}
	return nil
}

// want checks the client's ranged-read counters.
func wantRanged(t *testing.T, c *Client, reads, rebuilds int64) {
	t.Helper()
	if got := c.met.rangeReads.Value(); got != reads {
		t.Errorf("ps_client_range_reads_total = %d, want %d", got, reads)
	}
	if got := c.met.rangeRebuilds.Value(); got != rebuilds {
		t.Errorf("ps_client_range_rebuilds_total = %d, want %d", got, rebuilds)
	}
	if got := c.met.rangeBytes.Value(); got != reads*rangedLen {
		t.Errorf("ps_client_range_bytes_total = %d, want %d", got, reads*rangedLen)
	}
}

// TestLiveRangedReadHealthy is the baseline the fault cases bend: one
// OpFetchStream to the holder, nothing rebuilt, nothing else fetched.
func TestLiveRangedReadHealthy(t *testing.T) {
	rig := newRangedRig(t)
	var before int64
	for _, s := range rig.servers {
		before += s.FetchOps()
	}
	if err := rig.read(t, context.Background(), rig.c); err != nil {
		t.Fatal(err)
	}
	var after int64
	for _, s := range rig.servers {
		after += s.FetchOps()
	}
	if after-before != 1 {
		t.Errorf("a healthy one-block ranged read cost %d block reads, want 1", after-before)
	}
	wantRanged(t, rig.c, 1, 0)

	// The file-level form agrees, across a chunk seam and a block seam.
	for _, r := range [][2]int64{{0, 1}, {rangedChunk - 10, 20}, {rangedChunk/2 - 5, 10}, {3*rangedChunk + 7, 2*rangedChunk + 100}} {
		got, err := rig.c.FetchRange(rangedFile, r[0], r[1])
		if err != nil || !bytes.Equal(got, rig.data[r[0]:r[0]+r[1]]) {
			t.Errorf("FetchRange(%d, %d): %v", r[0], r[1], err)
		}
	}
}

func TestLiveRangedReadHolderDead(t *testing.T) {
	rig := newRangedRig(t)
	rig.proxies[rig.owners[0]].goDark()
	t0 := time.Now()
	if err := rig.read(t, context.Background(), rig.c); err != nil {
		t.Fatalf("ranged read with the holder dead: %v", err)
	}
	if took := time.Since(t0); took > rangedDeadline {
		t.Errorf("read took %v with the holder refusing connections", took)
	}
	wantRanged(t, rig.c, 1, 1)
}

func TestLiveRangedReadHolderHasNoBlock(t *testing.T) {
	rig := newRangedRig(t)
	name := core.BlockName(rangedFile, rig.ci, 0)
	if _, err := wire.Call(rig.servers[rig.owners[0]].Addr(), &wire.Request{Op: wire.OpDelete, Name: name}); err != nil {
		t.Fatal(err)
	}
	if err := rig.read(t, context.Background(), rig.c); err != nil {
		t.Fatalf("ranged read with the block gone from its holder: %v", err)
	}
	wantRanged(t, rig.c, 1, 1)
	if rig.c.met.hedgeFires.Value() != 0 {
		t.Errorf("a refusal counted as a hedge fire")
	}
}

// startLyingFront fronts backend with a node that answers every ranged
// block read with delta bytes more or fewer than asked. It speaks
// single-shot v1 only, which the client's pool falls back to.
func startLyingFront(t *testing.T, backend string, delta int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var req wire.Request
				if err := wire.ReadFrame(conn, &req); err != nil {
					return
				}
				if req.Op == wire.OpFetchStream {
					if off, n, err := wire.ParseFetchStream(&req); err == nil {
						req.Names = []string{strconv.FormatInt(off, 10), strconv.FormatInt(n+delta, 10)}
					}
				}
				resp, err := wire.Call(backend, &req)
				if resp == nil {
					resp = &wire.Response{Err: fmt.Sprint(err)}
				}
				_ = wire.WriteFrame(conn, resp)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// A holder that answers with a segment of the wrong length has failed:
// its bytes must never reach the caller, who gets the rebuilt range.
func TestLiveRangedReadHolderLiesAboutLength(t *testing.T) {
	rig := newRangedRig(t)
	for name, delta := range map[string]int64{"short": -1, "oversized": +1, "empty": -rangedLen} {
		ring := append([]wire.NodeInfo(nil), rig.ring...)
		ring[rig.owners[0]].Addr = startLyingFront(t, rig.servers[rig.owners[0]].Addr(), delta)
		c := NewStaticClientCfg(ring, erasure.MustXOR(2), rangedConfig())
		if err := rig.read(t, context.Background(), c); err != nil {
			t.Errorf("holder answers %s: %v", name, err)
		}
		wantRanged(t, c, 1, 1)
		c.Close()
	}
}

func TestLiveRangedReadHolderStalls(t *testing.T) {
	rig := newRangedRig(t)
	holder := rig.proxies[rig.owners[0]]
	if holder.respBytes.Load() == 0 {
		t.Fatal("the holder's proxy forwarded nothing during the store")
	}
	holder.stallResponsesAfter(0)
	t0 := time.Now()
	if err := rig.read(t, context.Background(), rig.c); err != nil {
		t.Fatalf("ranged read with the holder stalled: %v", err)
	}
	if took := time.Since(t0); took < rangedHedge || took > rangedDeadline {
		t.Errorf("read took %v, want between the %v hedge delay and well inside the %v timeout", took, rangedHedge, rangedTimeout)
	}
	wantRanged(t, rig.c, 1, 1)
	if rig.c.met.hedgeFires.Value() == 0 {
		t.Error("ps_client_hedge_fires_total did not move")
	}
}

// With the holder and one more block out of reach MinNeeded cannot be
// met: the read fails with an unavailability error — it never returns
// bytes.
func TestLiveRangedReadUnavailable(t *testing.T) {
	rig := newRangedRig(t)
	rig.proxies[rig.owners[0]].goDark()
	rig.proxies[rig.owners[2]].goDark()
	err := rig.read(t, context.Background(), rig.c)
	if !errors.Is(err, core.ErrUnavailable) && !errors.Is(err, ErrRingUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable or ErrRingUnavailable", err)
	}
	at := rig.cat.Rows[rig.ci].Start + rangedLo
	if got, err := rig.c.FetchRange(rangedFile, at, rangedLen); err == nil || got != nil {
		t.Fatalf("FetchRange returned %d bytes and %v", len(got), err)
	}
	wantRanged(t, rig.c, 0, 0)
}

func TestLiveRangedReadCancel(t *testing.T) {
	rig := newRangedRig(t)
	// Warm every connection the read will use, then freeze all three
	// holders: nothing can answer.
	if err := rig.read(t, context.Background(), rig.c); err != nil {
		t.Fatal(err)
	}
	rig.proxies[rig.owners[0]].goDark()
	if err := rig.read(t, context.Background(), rig.c); err != nil {
		t.Fatal(err)
	}
	rig.proxies[rig.owners[1]].stallResponsesAfter(0)
	rig.proxies[rig.owners[2]].stallResponsesAfter(0)
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(3*rangedHedge, cancel)
	t0 := time.Now()
	err := rig.read(t, ctx, rig.c)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := time.Since(t0); took > rangedDeadline {
		t.Errorf("cancelled read returned after %v", took)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled read, %d before it", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// holdPace waits out what is left of n bytes at rangePace, and no
// longer: nothing for a read that already took that long, and nothing
// more once the context is done.
func TestHoldPace(t *testing.T) {
	n := int64(rangePace / 50) // 20 ms at the pace
	floor := time.Duration(n * int64(time.Second) / rangePace)

	start := time.Now()
	holdPace(context.Background(), start, n)
	if got := time.Since(start); got < floor {
		t.Fatalf("returned after %v, before the %v the pace allows", got, floor)
	}

	start = time.Now()
	holdPace(context.Background(), start.Add(-floor), n)
	if got := time.Since(start); got > floor/2 {
		t.Fatalf("waited %v for a read that had already taken %v", got, floor)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start = time.Now()
	holdPace(ctx, start, 100*n)
	if got := time.Since(start); got > floor {
		t.Fatalf("waited %v on a cancelled context", got)
	}
}
