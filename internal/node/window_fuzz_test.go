package node

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"peerstripe/internal/wire"
)

// fuzzWindowRecord is the length of one segment record in a
// FuzzStoreWindow input (see windowSegmentAt).
const fuzzWindowRecord = 10

// fuzzWindowNames are the block names a fuzzed segment may carry: few,
// so that streams collide on a name and re-stores replace blocks.
var fuzzWindowNames = []string{"a", "b", "blk_0_1"}

// windowSegmentAt decodes one record of a FuzzStoreWindow input into an
// OpStoreWindow request. A record is flags, stream, name, size (two
// bytes, big-endian), segment size, seq, total, fill and payload
// length. The flags make the fields consistent more often than random
// bytes would: bit 0 derives total from size and segment size, bit 1
// folds seq into [0, total), and bit 2 clear sends the payload length
// the segment's slot wants, set sends the raw length byte. The payload
// is fill^i, so every segment's bytes are told apart.
func windowSegmentAt(b []byte) (wire.WindowSegment, string, []byte) {
	flags := b[0]
	seg := wire.WindowSegment{
		Stream: uint64(b[1]),
		Size:   int64(binary.BigEndian.Uint16(b[3:5])),
		Seg:    int64(b[5]),
		Seq:    int(b[6]),
		Total:  int(b[7]),
	}
	if flags&1 != 0 && seg.Seg > 0 {
		seg.Total = int((seg.Size + seg.Seg - 1) / seg.Seg)
	}
	if flags&2 != 0 && seg.Total > 0 {
		seg.Seq %= seg.Total
	}
	n := int(b[9])
	if flags&4 == 0 {
		lo := int64(seg.Seq) * seg.Seg
		n = int(max(0, min(lo+seg.Seg, seg.Size)-lo))
	}
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = b[8] ^ byte(i)
	}
	return seg, fuzzWindowNames[int(b[2])%len(fuzzWindowNames)], payload
}

// windowModel is what FuzzStoreWindow expects of one open stage: the
// geometry that opened it and the first payload accepted for each seq.
type windowModel struct {
	name      string
	total     int
	size, seg int64
	parts     map[int][]byte
}

func (m *windowModel) matches(seg wire.WindowSegment, name string) bool {
	return m.name == name && m.total == seg.Total && m.size == seg.Size && m.seg == seg.Seg
}

// staged is the byte count of the accepted parts.
func (m *windowModel) staged() int64 {
	var n int64
	for _, p := range m.parts {
		n += int64(len(p))
	}
	return n
}

// FuzzStoreWindow drives the window-staging state machine
// (Server.handleStoreWindow) — the surface a hostile peer reaches with
// OpStoreWindow — with segments decoded from the input: any stream,
// seq, total, size, segment size, name and payload, including
// duplicates, reordering and segments that disagree with their stage.
// After every segment the server must hold at most maxStagedStreams
// stages and no more than its capacity; a segment that disagrees with
// its open stage, or carries the wrong byte count, must drop the stage;
// a refused segment must change no stored block; and a stream whose
// segments all arrive, in any order, must commit exactly their bytes
// in seq order, the first payload of a duplicated seq winning.
func FuzzStoreWindow(f *testing.F) {
	rec := func(flags, stream, name byte, size uint16, segSize, seq, total, fill, plen byte) []byte {
		return []byte{flags, stream, name, byte(size >> 8), byte(size), segSize, seq, total, fill, plen}
	}
	// A three-segment stream out of order, with a duplicate.
	f.Add(bytes.Join([][]byte{
		rec(3, 1, 0, 10, 4, 2, 0, 0x10, 0),
		rec(3, 1, 0, 10, 4, 0, 0, 0x20, 0),
		rec(3, 1, 0, 10, 4, 0, 0, 0x30, 0),
		rec(3, 1, 0, 10, 4, 1, 0, 0x40, 0),
	}, nil))
	// Two interleaved streams on one name, one killed by a segment of
	// another geometry, one by a short payload.
	f.Add(bytes.Join([][]byte{
		rec(3, 2, 1, 8, 4, 0, 0, 1, 0),
		rec(3, 3, 1, 9, 3, 1, 0, 2, 0),
		rec(3, 2, 1, 8, 8, 0, 0, 3, 0),
		rec(7, 3, 1, 9, 3, 2, 0, 4, 1),
		rec(3, 3, 1, 9, 3, 0, 0, 5, 0),
	}, nil))
	// Sizes past the capacity, a one-segment store, raw fields.
	f.Add(bytes.Join([][]byte{
		rec(3, 4, 2, 40000, 255, 0, 0, 6, 0),
		rec(3, 5, 2, 100, 200, 0, 0, 7, 0),
		rec(0, 6, 0, 0, 0, 9, 3, 8, 0),
	}, nil))
	// Two stages that each fit the capacity, but not both: the second
	// commit is refused.
	f.Add(bytes.Join([][]byte{
		rec(3, 7, 0, 600, 200, 0, 0, 9, 0),
		rec(3, 8, 1, 600, 200, 0, 0, 10, 0),
		rec(3, 7, 0, 600, 200, 1, 0, 11, 0),
		rec(3, 8, 1, 600, 200, 1, 0, 12, 0),
		rec(3, 7, 0, 600, 200, 2, 0, 13, 0),
		rec(3, 8, 1, 600, 200, 2, 0, 14, 0),
	}, nil))
	// More streams than the server stages at once.
	var many [][]byte
	for i := 0; i <= maxStagedStreams+2; i++ {
		many = append(many, rec(3, byte(i), byte(i), 16, 8, 0, 0, byte(i), 0))
	}
	f.Add(bytes.Join(many, nil))

	f.Fuzz(func(t *testing.T, in []byte) {
		s := &Server{
			capacity:  1 << 10,
			blocks:    make(map[string]storedBlock),
			stages:    make(map[uint64]*storeStage),
			committed: make(map[uint64]time.Time),
		}
		models := make(map[uint64]*windowModel)
		for ; len(in) >= fuzzWindowRecord; in = in[fuzzWindowRecord:] {
			seg, name, payload := windowSegmentAt(in)
			before := s.stages[seg.Stream]
			_, wasCommitted := s.committed[seg.Stream]
			stagesBefore := len(s.stages)
			ob, held := s.blocks[name]
			old := bytes.Clone(ob.data)

			req := wire.EncodeStoreWindow(name, seg, payload)
			_, malformed := wire.ParseStoreWindow(req)
			resp := s.handleStoreWindow(req)

			after := s.stages[seg.Stream]
			if len(s.stages) > maxStagedStreams {
				t.Fatalf("%d stages staged, bound %d", len(s.stages), maxStagedStreams)
			}
			if s.used > s.capacity {
				t.Fatalf("%d bytes used of a %d-byte capacity", s.used, s.capacity)
			}
			if malformed != nil {
				// Control fields no stage could have: refused before any
				// stage is looked at.
				if resp.OK || after != before || len(s.stages) != stagesBefore {
					t.Fatalf("stream %d: malformed segment %+v touched the stages (ok %v)", seg.Stream, seg, resp.OK)
				}
				continue
			}
			m := models[seg.Stream]
			if (before == nil) != (m == nil) {
				t.Fatalf("stream %d: stage open %v, model open %v", seg.Stream, before != nil, m != nil)
			}
			lo := int64(seg.Seq) * seg.Seg
			wantLen := min(lo+seg.Seg, seg.Size) - lo
			if before != nil && (!m.matches(seg, name) || int64(len(payload)) != wantLen && m.parts[seg.Seq] == nil) {
				if after != nil || resp.OK {
					t.Fatalf("stream %d: segment %+v %q (%d bytes) disagrees with its stage, yet the stage stays (ok %v)",
						seg.Stream, seg, name, len(payload), resp.OK)
				}
			}
			if !resp.OK {
				delete(models, seg.Stream)
				if after != nil {
					t.Fatalf("stream %d: refused segment left its stage open: %s", seg.Stream, resp.Err)
				}
				if len(s.stages) > stagesBefore {
					t.Fatalf("stream %d: refused segment opened a stage", seg.Stream)
				}
				if now, ok := s.blocks[name]; ok != held || !bytes.Equal(now.data, old) {
					t.Fatalf("stream %d: refused segment changed block %q: %s", seg.Stream, name, resp.Err)
				}
				continue
			}
			if after != nil {
				if before != after {
					m = &windowModel{name: name, total: seg.Total, size: seg.Size, seg: seg.Seg, parts: make(map[int][]byte)}
					models[seg.Stream] = m
				}
				if m.parts[seg.Seq] == nil {
					m.parts[seg.Seq] = payload
				}
				if got := m.staged(); resp.Capacity != got {
					t.Fatalf("stream %d: ack reports %d staged bytes, want %d", seg.Stream, resp.Capacity, got)
				}
				continue
			}
			if before == nil && wasCommitted {
				// A retried segment of a committed stream: re-acked, and
				// nothing placed.
				if now := s.blocks[name]; !bytes.Equal(now.data, old) {
					t.Fatalf("stream %d: re-ack after commit changed block %q", seg.Stream, name)
				}
				continue
			}
			// The segment completed its stream, opened by it or before.
			want := make([]byte, 0, seg.Size)
			for q := 0; q < seg.Total; q++ {
				p := payload
				if q != seg.Seq {
					if m == nil || m.parts[q] == nil {
						t.Fatalf("stream %d committed without segment %d", seg.Stream, q)
					}
					p = m.parts[q]
				}
				want = append(want, p...)
			}
			delete(models, seg.Stream)
			if got := s.blocks[name].data; !bytes.Equal(got, want) || resp.Capacity != seg.Size {
				t.Fatalf("stream %d committed %d bytes (ack %d) to %q, want its %d segment bytes in seq order",
					seg.Stream, len(got), resp.Capacity, name, len(want))
			}
		}
	})
}
