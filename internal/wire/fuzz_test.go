package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
)

// FuzzWireFrame exercises the frame codec from both directions: a
// structured round trip (whatever the writers emit, the readers must
// reproduce) and raw-bytes decoding (truncated, oversized, and
// garbage-header inputs must error cleanly, never panic, and never
// allocate anywhere near what a lying header advertises). A decoded
// message's strings must own their bytes; its Data is a view into the
// frame, and only until Release — after which the frame goes back to
// the pool and carries the next message while the strings stay intact.
// An op the decoder does not know must come back byte for byte.
func FuzzWireFrame(f *testing.F) {
	f.Add([]byte("hello"), "blk_0_1", uint32(5))
	f.Add([]byte{}, "", uint32(0))
	f.Add([]byte{0xff, 0x00}, "x", uint32(MaxFrame+1))
	f.Add([]byte("op"), "fetchx", uint32(7))
	var valid bytes.Buffer
	_ = writeRequestV2(&valid, 1, &Request{Op: OpStore, Name: "seed", Data: []byte{1, 2, 3}})
	f.Add(valid.Bytes(), "seed", uint32(valid.Len()))
	// Hostile group frames: per-block lengths short of and past the
	// payload, lengths whose sum wraps a 32-bit count, a parts count
	// above MaxListLen, and a count past the frame's end.
	f.Add(hostileGroupRequest(3, []uint32{10, 10, 10}, 31), "f_0_", uint32(3))
	f.Add(hostileGroupRequest(3, []uint32{10, 10, 10}, 29), "f_0_", uint32(3))
	f.Add(hostileGroupRequest(2, []uint32{0xffffffff, 1}, 0), "f_0_", uint32(2))
	f.Add(hostileCount(MaxListLen+1), "", uint32(MaxListLen+1))
	f.Add(hostileCount(1000), "", uint32(1000))
	valid.Reset()
	_ = writeRequestV2(&valid, 2, &Request{Op: OpStore, Name: "f_0_", Parts: groupParts(3, 5)})
	f.Add(valid.Bytes(), "f_0_", uint32(valid.Len()))

	f.Fuzz(func(t *testing.T, data []byte, name string, hdrLen uint32) {
		// 1. Round trip: a request built from the fuzz inputs — with the
		// fuzz name as its op when that names no known op — and a
		// response carrying the fuzz payload, through both the plain and
		// the buffered (connection loop) reader.
		req := Request{Op: OpStore, Name: name, Data: data, Names: []string{name}}
		if !slices.Contains(Ops, Op(name)) {
			req.Op = Op(name)
		}
		req.Node = NodeInfo{Addr: name}
		var buf bytes.Buffer
		if err := writeRequestV2(&buf, uint64(hdrLen), &req); err != nil {
			t.Fatalf("writeRequestV2: %v", err)
		}
		frame := bytes.Clone(buf.Bytes())
		var got Request
		if err := readRequestV2(bytes.NewReader(frame), &got); err != nil {
			t.Fatalf("readRequestV2 of own frame: %v", err)
		}
		checkRequest(t, &got, &req, uint64(hdrLen))
		got.Release()
		if got.Data != nil {
			t.Fatal("Request.Release left Data set")
		}
		reuseFrames(t, frame)
		got.Data = req.Data // the strings must have survived the frame's reuse
		checkRequest(t, &got, &req, uint64(hdrLen))
		got = Request{}
		if err := readRequestV2(bufio.NewReader(bytes.NewReader(frame)), &got); err != nil {
			t.Fatalf("readRequestV2 of own frame, buffered: %v", err)
		}
		checkRequest(t, &got, &req, uint64(hdrLen))
		got.Release()
		// Decoding straight from the body, then overwriting it, must
		// change Data — a view — and leave every string as it was.
		var aliased Request
		if err := decodeRequestV2(frame[4:], &aliased); err != nil {
			t.Fatalf("decodeRequestV2 of own frame: %v", err)
		}
		scribble(frame)
		checkDataView(t, aliased.Data, data)
		aliased.Data = req.Data
		checkRequest(t, &aliased, &req, uint64(hdrLen)) // an op outside Ops comes back as itself, no known one

		resp := Response{OK: true, Err: name, Data: data,
			Capacity: int64(len(data)), Ring: []NodeInfo{{Addr: name}}}
		buf.Reset()
		if err := writeResponseV2(&buf, uint64(hdrLen), &resp); err != nil {
			t.Fatalf("writeResponseV2: %v", err)
		}
		frame = bytes.Clone(buf.Bytes())
		var gotResp Response
		if err := readResponseV2(bufio.NewReader(bytes.NewReader(frame)), &gotResp); err != nil {
			t.Fatalf("readResponseV2 of own frame: %v", err)
		}
		checkResponse(t, &gotResp, &resp, uint64(hdrLen))
		gotResp.Release()
		if gotResp.Data != nil {
			t.Fatal("Response.Release left Data set")
		}
		reuseFrames(t, frame)
		gotResp.Data = resp.Data
		checkResponse(t, &gotResp, &resp, uint64(hdrLen))
		var aliasedResp Response
		if err := decodeResponseV2(frame[4:], &aliasedResp); err != nil {
			t.Fatalf("decodeResponseV2 of own frame: %v", err)
		}
		scribble(frame)
		checkDataView(t, aliasedResp.Data, data)
		aliasedResp.Data = resp.Data
		checkResponse(t, &aliasedResp, &resp, uint64(hdrLen))

		// A group built from the fuzz inputs — the payload split into
		// up to three blocks keyed by the name — comes back part for
		// part, in both directions.
		parts := fuzzParts(data, name)
		buf.Reset()
		if err := writeRequestV2(&buf, 1, &Request{Op: OpStore, Name: name, Parts: parts}); err != nil {
			t.Fatalf("writeRequestV2 of a group: %v", err)
		}
		var gotGroup Request
		if err := readRequestV2(bufio.NewReader(bytes.NewReader(buf.Bytes())), &gotGroup); err != nil {
			t.Fatalf("readRequestV2 of own group frame: %v", err)
		}
		checkGroup(t, gotGroup.Parts, parts, true)
		gotGroup.Release()
		buf.Reset()
		if err := writeResponseV2(&buf, 1, &Response{OK: true, Parts: parts}); err != nil {
			t.Fatalf("writeResponseV2 of a group: %v", err)
		}
		var gotGroupResp Response
		if err := readResponseV2(bytes.NewReader(buf.Bytes()), &gotGroupResp); err != nil {
			t.Fatalf("readResponseV2 of own group frame: %v", err)
		}
		checkGroup(t, gotGroupResp.Parts, parts, false)
		gotGroupResp.Release()

		// 2. Raw garbage: the fuzz bytes as-is must never panic in
		// either reader, plain or buffered.
		var junk Request
		_ = readRequestV2(bytes.NewReader(data), &junk)
		_ = readRequestV2(bufio.NewReader(bytes.NewReader(data)), &junk)
		var junkResp Response
		_ = readResponseV2(bytes.NewReader(data), &junkResp)
		_ = readResponseV2(bufio.NewReader(bytes.NewReader(data)), &junkResp)

		// 3. Forged header over the fuzz body: whatever length the
		// header claims, decoding must not panic and must not
		// allocate more than the body actually delivers (plus the
		// bounded pre-grow step).
		forged := make([]byte, 4+len(data))
		binary.BigEndian.PutUint32(forged, hdrLen)
		copy(forged[4:], data)
		allocBound := func(what string, read func() error) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_ = read()
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(data))+2*frameGrowStep {
				t.Fatalf("%s: lying header of %d bytes over %d-byte body allocated %d bytes",
					what, hdrLen, len(data), grew)
			}
		}
		allocBound("readRequestV2", func() error { return readRequestV2(bytes.NewReader(forged), &junk) })
		allocBound("readResponseV2", func() error { return readResponseV2(bytes.NewReader(forged), &junkResp) })
		_ = readRequestV2(bufio.NewReader(bytes.NewReader(forged)), &junk)
	})
}

// reuseFrames reads a few scribbled copies of frame through the pool,
// so a buffer a message released is handed out and overwritten again.
func reuseFrames(t *testing.T, frame []byte) {
	t.Helper()
	other := bytes.Clone(frame)
	scribble(other[4:])
	for i := 0; i < 3; i++ {
		f, err := readFrame(bytes.NewReader(other))
		if err != nil {
			t.Fatalf("re-reading a frame: %v", err)
		}
		releaseFrame(&f)
	}
}

// checkDataView checks that a decoded Data is a view of a body that
// scribble has since overwritten: it reads back as want inverted.
func checkDataView(t *testing.T, got, want []byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded Data has %d bytes, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != ^want[i] {
			t.Fatalf("decoded Data is not a view of its frame: byte %d is %#x, want %#x", i, got[i], ^want[i])
		}
	}
}

// scribble overwrites b, so a decoded value still sharing its memory
// shows up as changed.
func scribble(b []byte) {
	for i := range b {
		b[i] = ^b[i]
	}
}

func checkRequest(t *testing.T, got, want *Request, id uint64) {
	t.Helper()
	if got.ID != id || got.Op != want.Op || got.Name != want.Name ||
		!slices.Equal(got.Names, want.Names) || !bytes.Equal(got.Data, want.Data) ||
		got.Node != want.Node {
		t.Fatalf("request round trip mismatch: got %+v, want %+v (ID %d)", got, want, id)
	}
}

func checkResponse(t *testing.T, got, want *Response, id uint64) {
	t.Helper()
	if got.ID != id || got.OK != want.OK || got.Err != want.Err ||
		!bytes.Equal(got.Data, want.Data) || got.Capacity != want.Capacity ||
		!slices.Equal(got.Ring, want.Ring) {
		t.Fatalf("response round trip mismatch: got %+v, want %+v (ID %d)", got, want, id)
	}
}

// fuzzParts splits data into up to three blocks keyed by slices of
// name, the middle one absent when data is odd.
func fuzzParts(data []byte, name string) []Part {
	if len(name) > 0xffff {
		name = name[:0xffff]
	}
	third := len(data) / 3
	cuts := []int{0, third, 2 * third, len(data)}
	parts := make([]Part, 3)
	for i := range parts {
		parts[i] = Part{Key: []byte(name[:len(name)*i/3]), Data: data[cuts[i]:cuts[i+1]]}
	}
	parts[1].Absent = len(data)%2 == 1
	return parts
}

// checkGroup compares decoded parts with the sent ones: keys on the
// request side, absent flags on the response side, bytes on both.
func checkGroup(t *testing.T, got, want []Part, keyed bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("group came back with %d parts, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Data, want[i].Data) ||
			(keyed && !bytes.Equal(got[i].Key, want[i].Key)) ||
			(!keyed && got[i].Absent != want[i].Absent) {
			t.Fatalf("part %d came back as %+v, want %+v", i, got[i], want[i])
		}
	}
}
