package node

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/ids"
	"peerstripe/internal/wire"
)

// TestHotMarkerFormat pins the marker's one form, "<copies> <hash, 16
// lowercase hex digits>": it round-trips, and anything else — the
// one-field form without a hash, a count outside [1, MaxHotCopies],
// other hex, trailing bytes — reads as an unknown marker.
func TestHotMarkerFormat(t *testing.T) {
	b := appendHotMarker(nil, 2, 0x0123456789abcdef)
	if string(b) != "2 0123456789abcdef" {
		t.Fatalf("marker %q", b)
	}
	if h := parseHotMarker(b); h != (HotMarker{Copies: 2, CATHash: 0x0123456789abcdef}) {
		t.Fatalf("parsed %q as %+v", b, h)
	}
	if h := parseHotMarker(appendHotMarker(nil, MaxHotCopies, 0)); h != (HotMarker{Copies: MaxHotCopies}) {
		t.Fatalf("zero hash parsed as %+v", h)
	}
	for _, bad := range []string{
		"", "2", "2 ", "0 0123456789abcdef", "9 0123456789abcdef", "02 0123456789abcdef",
		"2 0123456789ABCDEF", "2 0123456789abcde", "2 0123456789abcdef0", "2 0123456789abcdef\n",
		"2  0123456789abcdef", "-2 0123456789abcdef", "18446744073709551617 0123456789abcdef",
	} {
		if h := parseHotMarker([]byte(bad)); h != (HotMarker{Unknown: true}) {
			t.Errorf("%q parsed as %+v, want unknown", bad, h)
		}
	}
}

// TestHotMarkerBesideCAT pins where the marker lives and how a load
// reads it: Promote stores it on the owner of CAT replica 0, where one
// group exchange reads both; with replica 0 gone the load falls back
// to another replica and the marker is unknown, and Delete then sweeps
// every possible replica count, so nothing is left on any node.
func TestHotMarkerBesideCAT(t *testing.T) {
	servers, seed := startRing(t, 4, 1<<30)
	ctx := context.Background()
	c, err := NewClientCfg(ctx, seed, erasure.MustXOR(2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const chunk = 64 << 10
	data := make([]byte, 3*chunk)
	rand.New(rand.NewSource(30)).Read(data)
	cat, err := c.StoreBytes(ctx, "beside.dat", data, core.PlanChunkSizes(int64(len(data)), chunk))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PromoteCtx(ctx, "beside.dat", 2); err != nil {
		t.Fatal(err)
	}

	catOwner, err := OwnerOf(c.Ring(), ids.FromName(core.CATName("beside.dat")))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range servers {
		resp, err := rpc(s.Addr(), &wire.Request{Op: wire.OpFetch, Name: core.HotName("beside.dat")})
		if held := err == nil; held != (s.Addr() == catOwner.Addr) {
			t.Errorf("node %s holds the marker: %v (%v); the CAT's owner is %s", s.Addr(), held, resp, catOwner.Addr)
		}
	}

	got, hot, err := c.LoadCATHotCtx(ctx, "beside.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), cat.Marshal()) || hot != (HotMarker{Copies: 2, CATHash: cat.Hash()}) || hot.For(got) != 2 || hot.Stale(got) {
		t.Fatalf("load: CAT equal %v, marker %+v", bytes.Equal(got.Marshal(), cat.Marshal()), hot)
	}

	if _, err := rpc(catOwner.Addr, &wire.Request{Op: wire.OpDelete, Name: core.CATName("beside.dat")}); err != nil {
		t.Fatal(err)
	}
	got, hot, err = c.LoadCATHotCtx(ctx, "beside.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), cat.Marshal()) || !hot.Unknown || hot.For(got) != 0 {
		t.Fatalf("load from a fallback replica: CAT equal %v, marker %+v; want the CAT and an unknown marker", bytes.Equal(got.Marshal(), cat.Marshal()), hot)
	}

	if err := c.DeleteFileCtx(ctx, "beside.dat"); err != nil {
		t.Fatal(err)
	}
	for _, s := range servers {
		if s.NumBlocks() != 0 {
			t.Errorf("node %s holds %d blocks after the delete", s.Addr(), s.NumBlocks())
		}
	}
}
