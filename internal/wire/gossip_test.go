package wire

import (
	"bytes"
	"reflect"
	"testing"

	"peerstripe/internal/ids"
)

// gossipBatches are the batches the round-trip test encodes, and the
// fuzz target's seeds.
var gossipBatches = [][]MemberUpdate{
	nil,
	{{Node: NodeInfo{ID: ids.FromName("a"), Addr: "10.0.0.1:7001"}, State: StateAlive, Inc: 0}},
	{
		{Node: NodeInfo{ID: ids.FromName("a"), Addr: "a:1"}, State: StateAlive, Inc: 42},
		{Node: NodeInfo{ID: ids.FromName("b"), Addr: ""}, State: StateSuspect, Inc: 1},
		{Node: NodeInfo{ID: ids.FromName("c"), Addr: "c:3"}, State: StateDead, Inc: 1<<63 + 5},
	},
}

func TestGossipUpdatesRoundTrip(t *testing.T) {
	for i, ups := range gossipBatches {
		got, err := DecodeUpdates(EncodeUpdates(ups))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(ups) == 0 {
			if len(got) != 0 {
				t.Fatalf("case %d: empty batch decoded to %v", i, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, ups) {
			t.Fatalf("case %d: round trip\n got %v\nwant %v", i, got, ups)
		}
	}
}

func TestGossipUpdatesTruncatesOversizedBatch(t *testing.T) {
	big := make([]MemberUpdate, MaxGossipUpdates+10)
	for i := range big {
		big[i] = MemberUpdate{Node: NodeInfo{ID: ids.FromUint64(uint64(i))}, State: StateAlive}
	}
	got, err := DecodeUpdates(EncodeUpdates(big))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != MaxGossipUpdates {
		t.Fatalf("oversized batch: got %d entries, want %d", len(got), MaxGossipUpdates)
	}
}

// TestGossipUpdatesRejectsMalformed feeds the decoder the corruption
// shapes a broken or hostile peer could produce; every one must fail
// cleanly rather than panic or over-allocate.
func TestGossipUpdatesRejectsMalformed(t *testing.T) {
	good := EncodeUpdates([]MemberUpdate{
		{Node: NodeInfo{ID: ids.FromName("a"), Addr: "a:1"}, State: StateAlive, Inc: 1},
	})
	cases := map[string][]byte{
		"bad version":       append([]byte{99}, good[1:]...),
		"truncated header":  good[:2],
		"truncated entry":   good[:len(good)-3],
		"trailing garbage":  append(append([]byte{}, good...), 0xFF),
		"bad state":         func() []byte { b := append([]byte{}, good...); b[3+ids.Bytes] = 9; return b }(),
		"huge count":        {gossipVersion, 0xFF, 0xFF},
		"count over bodies": {gossipVersion, 0, 5},
	}
	for name, data := range cases {
		if _, err := DecodeUpdates(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzDecodeUpdates feeds the gossip decoder what a hostile peer could
// put in a probe's payload. It must never panic; a batch it accepts has
// at most MaxGossipUpdates entries, each with a known state and an
// address within the limit, owns its strings, and encodes back to the
// bytes it came from and decodes to itself again.
func FuzzDecodeUpdates(f *testing.F) {
	for _, ups := range gossipBatches {
		f.Add(EncodeUpdates(ups))
	}
	good := EncodeUpdates(gossipBatches[2])
	f.Add(good[:len(good)-3])
	f.Add([]byte{gossipVersion, 0, 0})
	f.Add([]byte{gossipVersion, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		ups, err := DecodeUpdates(in)
		if err != nil {
			return
		}
		if len(ups) > MaxGossipUpdates {
			t.Fatalf("accepted %d entries, limit %d", len(ups), MaxGossipUpdates)
		}
		for i, u := range ups {
			if u.State > StateDead {
				t.Fatalf("entry %d: accepted state %d", i, u.State)
			}
			if len(u.Node.Addr) > maxGossipAddr {
				t.Fatalf("entry %d: accepted an address of %d bytes", i, len(u.Node.Addr))
			}
		}
		if len(ups) == 0 {
			return
		}
		enc := EncodeUpdates(ups)
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encoding changed the batch\n got %x\nwant %x", enc, data)
		}
		for i := range in {
			in[i] ^= 0xFF // the decoded addresses must not be views of it
		}
		again, err := DecodeUpdates(enc)
		if err != nil {
			t.Fatalf("decoding a re-encoded batch: %v", err)
		}
		if !reflect.DeepEqual(again, ups) {
			t.Fatalf("round trip\n got %v\nwant %v", again, ups)
		}
	})
}
