package node

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"peerstripe/internal/wire"
)

// FuzzFetchGroup drives the server's fetch-group handler with the parts
// a peer could send: three ranged parts over two stored blocks and one
// absent name, each with any offset and any 32-bit length, on a node
// holding the bytes or only their sizes (discard mode), and with one
// block large enough that two parts of it do not fit a frame. It must
// never panic; each answer must be exactly the stored bytes
// [off, min(off+len, size)), sliced from the block itself — or the part
// marked absent; a part whose range starts outside its block refuses
// the group; and a group whose answers would pass the frame limit is
// refused whole.
func FuzzFetchGroup(f *testing.F) {
	f.Add(uint8(0), int64(0), uint32(10), uint8(1), int64(3), uint32(0), uint8(2), int64(0), uint32(1), uint16(100), false)
	f.Add(uint8(0), int64(101), uint32(1), uint8(1), int64(100), uint32(5), uint8(2), int64(0), uint32(0), uint16(100), false)                     // past the end, at the end
	f.Add(uint8(0), int64(math.MaxInt64), uint32(math.MaxUint32), uint8(0), int64(-1), uint32(1), uint8(0), int64(0), uint32(0), uint16(7), false) // off+len overflows, negative off
	f.Add(uint8(0), int64(0), uint32(wire.MaxFrame), uint8(1), int64(50), uint32(wire.MaxFrame), uint8(2), int64(9), uint32(9), uint16(60), true)
	f.Add(uint8(3), int64(0), uint32(wire.MaxFrame), uint8(3), int64(1), uint32(wire.MaxFrame), uint8(0), int64(0), uint32(0), uint16(1), false) // over the frame limit
	f.Add(uint8(3), int64(0), uint32(wire.MaxFrame), uint8(3), int64(1), uint32(wire.MaxFrame), uint8(1), int64(0), uint32(0), uint16(1), true)

	// Two parts of the big block pass the frame limit, held bytes or not.
	big := make([]byte, maxSingleFrameBlock/2+1)
	f.Fuzz(func(t *testing.T, k0 uint8, off0 int64, len0 uint32, k1 uint8, off1 int64, len1 uint32, k2 uint8, off2 int64, len2 uint32, size uint16, discard bool) {
		blocks := map[string][]byte{
			"0": make([]byte, size),
			"1": make([]byte, int(size)/2),
			"3": big,
		}
		rand.New(rand.NewSource(int64(size))).Read(blocks["0"])
		rand.New(rand.NewSource(int64(size) + 1)).Read(blocks["1"])
		s := &Server{blocks: make(map[string]storedBlock), discard: discard}
		for k, b := range blocks {
			sb := storedBlock{data: b, size: int64(len(b))}
			if discard {
				sb.data = nil
			}
			s.blocks["f_0_"+k] = sb
		}
		asked := []wire.Part{ // "2" is never stored
			{Key: []byte{'0' + k0%4}, Off: off0, Len: int64(len0)},
			{Key: []byte{'0' + k1%4}, Off: off1, Len: int64(len1)},
			{Key: []byte{'0' + k2%4}, Off: off2, Len: int64(len2)},
		}
		req := &wire.Request{Op: wire.OpFetch, Name: "f_0_", Parts: append([]wire.Part(nil), asked...)}
		resp := s.fetchGroup(req)

		refused, total := false, int64(0)
		for _, p := range asked {
			b, ok := blocks[string(p.Key)]
			if !ok {
				continue
			}
			if p.Off < 0 || p.Off > int64(len(b)) {
				refused = true
				continue
			}
			if !discard {
				total += min(p.Len, int64(len(b))-p.Off)
			}
		}
		if refused || total > maxSingleFrameBlock {
			if resp.OK || resp.Err == "" || len(resp.Parts) != 0 {
				t.Fatalf("parts %+v (discard %v): answered %+v, want the group refused", asked, discard, resp)
			}
			return
		}
		if !resp.OK || len(resp.Parts) != len(asked) {
			t.Fatalf("parts %+v (discard %v): answered OK %v, err %q, %d parts", asked, discard, resp.OK, resp.Err, len(resp.Parts))
		}
		for i, p := range asked {
			got := resp.Parts[i]
			b, ok := blocks[string(p.Key)]
			if !ok {
				if !got.Absent || got.Data != nil {
					t.Fatalf("part %d, never stored: answered %+v, want absent", i, got)
				}
				continue
			}
			if got.Absent {
				t.Fatalf("part %d of a held block marked absent", i)
			}
			want := b[p.Off : p.Off+min(p.Len, int64(len(b))-p.Off)]
			if discard {
				want = nil
			}
			if !bytes.Equal(got.Data, want) {
				t.Fatalf("part %d %+v of a %d-byte block: answered %d bytes, want %d", i, p, len(b), len(got.Data), len(want))
			}
			if len(want) > 0 && &got.Data[0] != &want[0] {
				t.Fatalf("part %d: the answer is not the block's own bytes", i)
			}
		}
	})
}
