package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"peerstripe/internal/ids"
)

// Frame codec of the v2 dialect, the one the preamble names (mux.go): a
// compact hand-rolled binary encoding of the Request/Response structs,
// one length-prefixed frame per message, every variable-length field
// bounds-checked against the bytes actually received, so a forged
// header can neither panic the decoder nor make it over-allocate. (It
// replaced gob, whose per-frame type descriptions profiled at ~70% of
// the live data path's CPU.)
//
// Frame layout (big endian):
//
//	[4B body len][1B kind][8B ID] kind-specific fields…
//
// Request:  op, name, names[], data, node
// Response: flags(OK), err, data, capacity, used, blocks, ring[]
//
// Strings carry a 2-byte length, byte blobs a 4-byte length, list
// counts 4 bytes; a NodeInfo is a raw 20-byte ID plus an address
// string.

const (
	kindRequest  = 1
	kindResponse = 2
)

var errFrameCorrupt = errors.New("wire: corrupt v2 frame")

type frameWriter struct{ buf *frameBuf }

func (w frameWriter) u8(v byte)    { w.buf.b = append(w.buf.b, v) }
func (w frameWriter) u32(v uint32) { w.buf.b = binary.BigEndian.AppendUint32(w.buf.b, v) }
func (w frameWriter) u64(v uint64) { w.buf.b = binary.BigEndian.AppendUint64(w.buf.b, v) }
func (w frameWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w frameWriter) str(s string) {
	w.buf.b = binary.BigEndian.AppendUint16(w.buf.b, uint16(len(s)))
	w.buf.b = append(w.buf.b, s...)
}
func (w frameWriter) blob(p []byte) { w.u32(uint32(len(p))); w.buf.b = append(w.buf.b, p...) }
func (w frameWriter) node(n NodeInfo) {
	w.buf.b = append(w.buf.b, n.ID[:]...)
	w.str(n.Addr)
}

type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b) {
		r.err = errFrameCorrupt
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *frameReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *frameReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *frameReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *frameReader) i64() int64 { return int64(r.u64()) }

// strBytes returns a string field's bytes as a view into the frame.
func (r *frameReader) strBytes() []byte {
	b := r.take(2)
	if b == nil {
		return nil
	}
	return r.take(int(binary.BigEndian.Uint16(b)))
}

func (r *frameReader) str() string { return string(r.strBytes()) }

// op decodes an op field onto the shared Ops constant it names, so a
// request costs no allocation for its op; an op outside Ops is copied
// out of the frame like any other string.
func (r *frameReader) op() Op {
	b := r.strBytes()
	for _, op := range Ops {
		if string(op) == string(b) {
			return op
		}
	}
	return Op(b)
}

// blob returns a copy: the backing frame buffer is pooled.
func (r *frameReader) blob() []byte {
	n := r.u32()
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (r *frameReader) node() NodeInfo {
	var n NodeInfo
	copy(n.ID[:], r.take(len(n.ID)))
	n.Addr = r.str()
	return n
}

// maxListLen caps decoded list counts. Far above anything the
// protocol produces (Names is one chunk's blocks, Ring is the
// membership), it bounds the slice-header allocation a forged count
// could otherwise amplify out of a dense frame.
const maxListLen = 1 << 16

// count validates a list length against the bytes left (each element
// occupies at least elemMin bytes) and maxListLen, so a forged count
// cannot drive a huge allocation.
func (r *frameReader) count(elemMin int) int {
	n := int(r.u32())
	if r.err == nil && (n > maxListLen || n*elemMin > len(r.b)) {
		r.err = errFrameCorrupt
		return 0
	}
	return n
}

func (r *frameReader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return errFrameCorrupt
	}
	return nil
}

// writeV2 frames one encoded message: body assembled in a pooled
// buffer behind a 4-byte length prefix, one Write call. payload is the
// size of the message's byte blob, the one part of a frame that can be
// large; the buffer is sized for it up front.
func writeV2(w io.Writer, payload int, encode func(frameWriter)) error {
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	buf.reserve(payload + frameHeaderSlack)
	buf.b = append(buf.b, 0, 0, 0, 0)
	encode(frameWriter{buf})
	b := buf.b
	n := len(b) - 4
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(n))
	_, err := w.Write(b)
	return err
}

// writeRequestV2 frames req under the multiplexing ID id, which the
// frame carries in place of req.ID, so a caller's request is sent
// without being copied to tag it.
func writeRequestV2(w io.Writer, id uint64, req *Request) error {
	if len(req.Name) > 0xffff || len(req.Node.Addr) > 0xffff || len(req.Op) > 0xffff {
		return fmt.Errorf("wire: request field too long")
	}
	if len(req.Names) > maxListLen {
		return fmt.Errorf("wire: request carries %d names, limit %d", len(req.Names), maxListLen)
	}
	for _, n := range req.Names {
		// An unchecked element would truncate its uint16 length prefix
		// and poison the whole multiplexed stream.
		if len(n) > 0xffff {
			return fmt.Errorf("wire: request name of %d bytes too long", len(n))
		}
	}
	return writeV2(w, len(req.Data), func(fw frameWriter) {
		fw.u8(kindRequest)
		fw.u64(id)
		fw.str(string(req.Op))
		fw.str(req.Name)
		fw.u32(uint32(len(req.Names)))
		for _, n := range req.Names {
			fw.str(n)
		}
		fw.blob(req.Data)
		fw.node(req.Node)
	})
}

// readRequestV2 reads one request frame (the bounded-growth path of
// readFrameBody) and decodes it into req.
func readRequestV2(r io.Reader, req *Request) error {
	return readFrameBody(r, func(body []byte) error { return decodeRequestV2(body, req) })
}

// decodeRequestV2 decodes one request frame body into req. Nothing in
// req aliases body, which goes back to the frame pool.
func decodeRequestV2(body []byte, req *Request) error {
	fr := frameReader{b: body}
	if fr.u8() != kindRequest {
		return errFrameCorrupt
	}
	req.ID = fr.u64()
	req.Op = fr.op()
	req.Name = fr.str()
	if n := fr.count(2); n > 0 {
		req.Names = make([]string, n)
		for i := range req.Names {
			req.Names[i] = fr.str()
		}
	}
	req.Data = fr.blob()
	req.Node = fr.node()
	return fr.done()
}

// writeResponseV2 frames resp as the answer to request id, which the
// frame carries in place of resp.ID, so a handler's response is sent
// as it was returned.
func writeResponseV2(w io.Writer, id uint64, resp *Response) error {
	if len(resp.Err) > 0xffff {
		return fmt.Errorf("wire: response error string too long")
	}
	if len(resp.Ring) > maxListLen {
		return fmt.Errorf("wire: response carries %d ring members, limit %d", len(resp.Ring), maxListLen)
	}
	for _, n := range resp.Ring {
		if len(n.Addr) > 0xffff {
			return fmt.Errorf("wire: ring address of %d bytes too long", len(n.Addr))
		}
	}
	return writeV2(w, len(resp.Data), func(fw frameWriter) {
		fw.u8(kindResponse)
		fw.u64(id)
		var flags byte
		if resp.OK {
			flags = 1
		}
		fw.u8(flags)
		fw.str(resp.Err)
		fw.blob(resp.Data)
		fw.i64(resp.Capacity)
		fw.i64(resp.Used)
		fw.u32(uint32(resp.Blocks))
		fw.u32(uint32(len(resp.Ring)))
		for _, n := range resp.Ring {
			fw.node(n)
		}
	})
}

// readResponseV2 reads one response frame and decodes it into resp.
func readResponseV2(r io.Reader, resp *Response) error {
	return readFrameBody(r, func(body []byte) error { return decodeResponseV2(body, resp) })
}

// decodeResponseV2 decodes one response frame body into resp. Nothing
// in resp aliases body.
func decodeResponseV2(body []byte, resp *Response) error {
	fr := frameReader{b: body}
	if fr.u8() != kindResponse {
		return errFrameCorrupt
	}
	resp.ID = fr.u64()
	resp.OK = fr.u8()&1 != 0
	resp.Err = fr.str()
	resp.Data = fr.blob()
	resp.Capacity = fr.i64()
	resp.Used = fr.i64()
	resp.Blocks = int(int32(fr.u32()))
	if n := fr.count(ids.Bytes + 2); n > 0 {
		resp.Ring = make([]NodeInfo, n)
		for i := range resp.Ring {
			resp.Ring[i] = fr.node()
		}
	}
	return fr.done()
}
