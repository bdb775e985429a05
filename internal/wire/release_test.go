package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"
)

// refFrame lays a frame out the way the codec documents it, in one
// buffer: the single-buffer encoding the three-piece writer must
// reproduce byte for byte.
type refFrame struct{ b []byte }

func (f *refFrame) u8(v byte)    { f.b = append(f.b, v) }
func (f *refFrame) u32(v uint32) { f.b = binary.BigEndian.AppendUint32(f.b, v) }
func (f *refFrame) u64(v uint64) { f.b = binary.BigEndian.AppendUint64(f.b, v) }
func (f *refFrame) str(s string) {
	f.b = binary.BigEndian.AppendUint16(f.b, uint16(len(s)))
	f.b = append(f.b, s...)
}
func (f *refFrame) blob(p []byte) { f.u32(uint32(len(p))); f.b = append(f.b, p...) }

// group lays out a group's table and its blocks back to back as the
// data blob, or the single payload when there are no parts.
func (f *refFrame) group(parts []Part, keyed bool, data []byte) {
	f.u32(uint32(len(parts)))
	var joined []byte
	for _, p := range parts {
		if keyed {
			f.str(string(p.Key))
			f.u64(uint64(p.Off))
			f.u32(uint32(p.Len))
		} else if p.Absent {
			f.u8(1)
		} else {
			f.u8(0)
		}
		f.u32(uint32(len(p.Data)))
		joined = append(joined, p.Data...)
	}
	if len(parts) == 0 {
		joined = data
	}
	f.blob(joined)
}
func (f *refFrame) node(n NodeInfo) {
	f.b = append(f.b, n.ID[:]...)
	f.str(n.Addr)
}
func (f *refFrame) done() []byte {
	binary.BigEndian.PutUint32(f.b, uint32(len(f.b)-4))
	return f.b
}

func refRequest(id uint64, req *Request) []byte {
	f := &refFrame{b: make([]byte, 4)}
	f.u8(kindRequest)
	f.u64(id)
	f.str(string(req.Op))
	f.str(req.Name)
	f.u32(uint32(len(req.Names)))
	for _, n := range req.Names {
		f.str(n)
	}
	f.group(req.Parts, true, req.Data)
	f.node(req.Node)
	return f.done()
}

func refResponse(id uint64, resp *Response) []byte {
	f := &refFrame{b: make([]byte, 4)}
	f.u8(kindResponse)
	f.u64(id)
	var flags byte
	if resp.OK {
		flags = 1
	}
	if resp.Absent {
		flags |= 2
	}
	f.u8(flags)
	f.str(resp.Err)
	f.group(resp.Parts, false, resp.Data)
	f.u64(uint64(resp.Capacity))
	f.u64(uint64(resp.Used))
	f.u32(uint32(resp.Blocks))
	f.u32(uint32(len(resp.Ring)))
	for _, n := range resp.Ring {
		f.node(n)
	}
	return f.done()
}

// TestThreePieceWriterGolden checks that a frame written as head,
// payload and tail is, on every op, the single-buffer encoding: through
// a plain writer (one Write per piece) and through a TCP socket, where
// the pieces leave in one writev.
func TestThreePieceWriterGolden(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	check := func(what string, want []byte, write func(io.Writer) error) {
		t.Helper()
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: three-piece frame differs from the single-buffer encoding", what)
		}
		if err := write(client); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if _, err := io.ReadFull(server, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: frame written to a socket differs from the single-buffer encoding", what)
		}
	}
	for i, op := range Ops {
		id := uint64(i)<<40 | 7
		req := goldenRequest(op)
		check(string(op)+" request", refRequest(id, req), func(w io.Writer) error { return writeRequestV2(w, id, req) })
		empty := &Request{Op: op}
		check(string(op)+" empty request", refRequest(id, empty), func(w io.Writer) error { return writeRequestV2(w, id, empty) })
		resp := echoHandler(req)
		resp.Used, resp.Blocks = 1<<40, 3
		check(string(op)+" response", refResponse(id, resp), func(w io.Writer) error { return writeResponseV2(w, id, resp) })
	}
}

// unpooledPayload is a payload whose frame is too large for the frame
// pool: a released frame of it is poisoned and then let go, so no later
// message in the process can overwrite the poison before a test looks.
const unpooledPayload = maxPooledFrame + 1

// TestUseAfterReleaseDetected uses a response's Data after Release on
// purpose. Under the race detector Release poisons the frame, so the
// stale view reads as poison instead of the bytes that were there —
// what makes every byte-verifying suite a use-after-release detector
// under `make race`.
func TestUseAfterReleaseDetected(t *testing.T) {
	if !raceEnabled {
		t.Skip("released frames are poisoned only under the race detector")
	}
	payload := bytes.Repeat([]byte{7}, unpooledPayload)
	addr, _ := startV2Server(t, func(req *Request) *Response {
		return &Response{OK: true, Data: payload}
	})
	p := NewPool()
	defer p.Close()
	resp, err := p.CallCtx(context.Background(), addr, &Request{Op: OpFetch, Name: "blk"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	stale := resp.Data
	if !bytes.Equal(stale, payload) {
		t.Fatal("response payload corrupted before release")
	}
	resp.Release()
	if !bytes.Equal(stale, bytes.Repeat([]byte{poisonByte}, len(stale))) {
		t.Fatal("a view used after Release still reads the released bytes: the poison did not land")
	}
}

// TestHandlerKeepingDataSeesPoison runs a handler that keeps req.Data
// past its return — the mistake Handler's doc warns of — next to one
// that copies it. Serve releases the request frame after the response
// is written, so under the race detector the kept block reads as
// poison, while the copied one is intact. One worker serves the
// connection, so the fetch's handler runs on the goroutine that
// released the store's frame, after it did. (A kept view of a pooled
// frame would also be overwritten by whatever message the frame carries
// next — a data race the detector reports on its own.)
func TestHandlerKeepingDataSeesPoison(t *testing.T) {
	var kept, copied []byte
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		Serve(conn, func(req *Request) *Response {
			switch req.Op {
			case OpStore:
				kept, copied = req.Data, bytes.Clone(req.Data)
				return &Response{OK: true}
			case OpFetch:
				if req.Name == "kept" {
					return &Response{OK: true, Data: bytes.Clone(kept)}
				}
				return &Response{OK: true, Data: copied}
			}
			return &Response{Err: "unexpected op"}
		}, 1)
	}()
	p := NewPool()
	defer p.Close()
	addr := ln.Addr().String()
	block := bytes.Repeat([]byte("block!"), unpooledPayload/6+1)
	if _, err := p.CallCtx(context.Background(), addr, &Request{Op: OpStore, Name: "b", Data: block}, 0); err != nil {
		t.Fatal(err)
	}
	fetch := func(name string) []byte {
		resp, err := p.CallCtx(context.Background(), addr, &Request{Op: OpFetch, Name: name}, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Release()
		return bytes.Clone(resp.Data)
	}
	if got := fetch("copied"); !bytes.Equal(got, block) {
		t.Fatal("a handler that copied req.Data stored the wrong bytes")
	}
	got := fetch("kept")
	if raceEnabled && !bytes.Equal(got, bytes.Repeat([]byte{poisonByte}, len(block))) {
		t.Fatal("a handler that kept req.Data past its return did not see the poison")
	}
}
