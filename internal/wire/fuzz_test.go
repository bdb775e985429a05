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
// allocate anywhere near what a lying header advertises). The decoders
// must hand out values that own their bytes — the frame they decode
// from goes back to a pool — and must carry an op they do not know
// byte for byte.
func FuzzWireFrame(f *testing.F) {
	f.Add([]byte("hello"), "blk_0_1", uint32(5))
	f.Add([]byte{}, "", uint32(0))
	f.Add([]byte{0xff, 0x00}, "x", uint32(MaxFrame+1))
	f.Add([]byte("op"), "fetchx", uint32(7))
	var valid bytes.Buffer
	_ = writeRequestV2(&valid, 1, &Request{Op: OpStore, Name: "seed", Data: []byte{1, 2, 3}})
	f.Add(valid.Bytes(), "seed", uint32(valid.Len()))

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
		got = Request{}
		if err := readRequestV2(bufio.NewReader(bytes.NewReader(frame)), &got); err != nil {
			t.Fatalf("readRequestV2 of own frame, buffered: %v", err)
		}
		checkRequest(t, &got, &req, uint64(hdrLen))
		// Decoding straight from the body, then overwriting it, must
		// leave every decoded value as it was.
		var aliased Request
		if err := decodeRequestV2(frame[4:], &aliased); err != nil {
			t.Fatalf("decodeRequestV2 of own frame: %v", err)
		}
		scribble(frame)
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
		var aliasedResp Response
		if err := decodeResponseV2(frame[4:], &aliasedResp); err != nil {
			t.Fatalf("decodeResponseV2 of own frame: %v", err)
		}
		scribble(frame)
		checkResponse(t, &aliasedResp, &resp, uint64(hdrLen))

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
