package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

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
// Request:  op, name, names[], parts[], data, node
// Response: flags(OK, absent), err, parts[], data, capacity, used, blocks, ring[]
//
// Strings carry a 2-byte length, byte blobs a 4-byte length, list
// counts 4 bytes; a NodeInfo is a raw 20-byte ID plus an address
// string. A request part is its key string, the 8-byte offset and
// 4-byte length of the range it asks for, and a 4-byte length; a
// response part a flags byte (absent) and a 4-byte length; a group's
// blocks are the data blob, back to back, so the lengths must sum to
// it.

const (
	kindRequest  = 1
	kindResponse = 2
)

var errFrameCorrupt = errors.New("wire: corrupt v2 frame")

// frameWriter encodes a frame into a frameHead: every field but the
// payload is appended to the head buffer, and data marks where the
// payload goes without copying it.
type frameWriter struct{ h *frameHead }

func (w frameWriter) u8(v byte)    { w.h.b = append(w.h.b, v) }
func (w frameWriter) u32(v uint32) { w.h.b = binary.BigEndian.AppendUint32(w.h.b, v) }
func (w frameWriter) u64(v uint64) { w.h.b = binary.BigEndian.AppendUint64(w.h.b, v) }
func (w frameWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w frameWriter) str(s string) {
	w.h.b = binary.BigEndian.AppendUint16(w.h.b, uint16(len(s)))
	w.h.b = append(w.h.b, s...)
}

// parts writes a group's table and marks its blocks as the payload, one
// piece each. keyed selects the request form (key, length) over the
// response form (flags, length).
func (w frameWriter) parts(ps []Part, keyed bool) {
	w.u32(uint32(len(ps)))
	total := 0
	for _, p := range ps {
		if keyed {
			w.h.b = binary.BigEndian.AppendUint16(w.h.b, uint16(len(p.Key)))
			w.h.b = append(w.h.b, p.Key...)
			w.i64(p.Off)
			w.u32(uint32(p.Len))
		} else {
			var flags byte
			if p.Absent {
				flags = 1
			}
			w.u8(flags)
		}
		w.u32(uint32(len(p.Data)))
		total += len(p.Data)
	}
	w.h.parts = ps
	w.h.partBytes = total
}

// data writes the payload's length and marks where it goes without
// copying it: p, or a group's blocks (a message carries one or the
// other).
func (w frameWriter) data(p []byte) {
	w.u32(uint32(len(p) + w.h.partBytes))
	w.h.split, w.h.payload = len(w.h.b), p
}
func (w frameWriter) node(n NodeInfo) {
	w.h.b = append(w.h.b, n.ID[:]...)
	w.str(n.Addr)
}

// frameHead is a pooled send buffer: the length prefix and the fields
// before the payload, then the fields after it, in one small buffer.
// The payload itself is never copied — the frame leaves as head, the
// payload's pieces, tail, in one vectored write (writev on a socket):
// three pieces for a single block, one more per block of a group.
type frameHead struct {
	b         []byte
	split     int    // where in b the payload goes
	payload   []byte // the caller's, written in place
	parts     []Part // a group's blocks, each written in place instead
	partBytes int
	pieces    [][]byte
	bufs      net.Buffers // over pieces; kept here so a write allocates nothing
}

// maxPooledHead caps the head buffers kept for reuse. A head holds a
// frame's names and control fields; only a large capacity probe or ring
// listing comes near it.
const maxPooledHead = 64 << 10

// maxPooledPieces caps the piece and part lists kept for reuse, so one
// frame of a huge group does not pin its list.
const maxPooledPieces = 1 << 10

var headPool = sync.Pool{New: func() any { return new(frameHead) }}

// writeV2 frames one encoded message behind a 4-byte length prefix and
// writes it as head, payload, tail: the bytes on the wire are those of
// the frame laid out in one buffer, but the payload goes to w from the
// caller's own memory.
func writeV2(w io.Writer, encode func(frameWriter)) error {
	h := headPool.Get().(*frameHead)
	defer func() {
		clear(h.pieces)
		h.b, h.split, h.payload, h.parts, h.partBytes = h.b[:0], 0, nil, nil, 0
		h.pieces, h.bufs = h.pieces[:0], nil
		if cap(h.b) <= maxPooledHead && cap(h.pieces) <= maxPooledPieces {
			headPool.Put(h)
		}
	}()
	if h.b == nil {
		h.b = make([]byte, 0, frameHeaderSlack)
	}
	h.b = append(h.b, 0, 0, 0, 0)
	encode(frameWriter{h})
	n := len(h.b) - 4 + len(h.payload) + h.partBytes
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(h.b[:4], uint32(n))
	h.pieces = append(h.pieces, h.b[:h.split])
	if len(h.parts) == 0 {
		h.pieces = append(h.pieces, h.payload)
	}
	for _, p := range h.parts {
		h.pieces = append(h.pieces, p.Data)
	}
	h.pieces = append(h.pieces, h.b[h.split:])
	h.bufs = h.pieces
	_, err := h.bufs.WriteTo(w)
	return err
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

// blob returns a view into the frame, capped so an append to it cannot
// run over the fields after it.
func (r *frameReader) blob() []byte {
	n := int(r.u32())
	b := r.take(n)
	if b == nil {
		return nil
	}
	return b[:n:n]
}

func (r *frameReader) node() NodeInfo {
	var n NodeInfo
	copy(n.ID[:], r.take(len(n.ID)))
	n.Addr = r.str()
	return n
}

// MaxListLen caps list counts — a group's parts, the ring, a segment's
// control fields — on both sides. Far above one chunk's blocks or the
// membership, it bounds the slice-header allocation a forged count
// could otherwise amplify out of a dense frame; a sender splits a
// larger group at it.
const MaxListLen = 1 << 16

// Smallest encodings of a request and a response part: an empty key
// and its range, or the flags byte; and the length.
const (
	reqPartMin  = 2 + 8 + 4 + 4
	respPartMin = 1 + 4
)

// count validates a list length against the bytes left (each element
// occupies at least elemMin bytes) and MaxListLen, so a forged count
// cannot drive a huge allocation.
func (r *frameReader) count(elemMin int) int {
	n := int(r.u32())
	if r.err == nil && (n > MaxListLen || n*elemMin > len(r.b)) {
		r.err = errFrameCorrupt
		return 0
	}
	return n
}

// groupData reads a group's table — n parts, keyed (request) or with
// flags (response) — and the data blob after it, and hands each part
// its view of the blob. The table is walked twice: once to sum the
// lengths, which must come to the blob's, and once the blob is known
// to slice it. parts is reused when it has room. With no parts the
// blob is returned as data.
func (r *frameReader) groupData(parts []Part, keyed bool) (data []byte, out []Part) {
	elemMin := respPartMin
	if keyed {
		elemMin = reqPartMin
	}
	n := r.count(elemMin)
	tab := *r
	var total uint64 // n lengths of 32 bits each cannot wrap it
	for i := 0; i < n && r.err == nil; i++ {
		if keyed {
			r.strBytes()
			r.take(8 + 4)
		} else {
			r.u8()
		}
		total += uint64(r.u32())
	}
	data = r.blob()
	if n == 0 || r.err != nil {
		return data, parts[:0]
	}
	if total != uint64(len(data)) {
		r.err = errFrameCorrupt
		return nil, parts[:0]
	}
	if cap(parts) < n {
		parts = make([]Part, n)
	}
	parts = parts[:n]
	off := 0
	for i := range parts {
		p := Part{}
		if keyed {
			k := tab.strBytes()
			p.Key = k[:len(k):len(k)]
			p.Off, p.Len = tab.i64(), int64(tab.u32())
		} else {
			p.Absent = tab.u8()&1 != 0
		}
		end := off + int(tab.u32())
		if end > off {
			p.Data = data[off:end:end]
		}
		parts[i], off = p, end
	}
	return nil, parts
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

// writeRequestV2 frames req under the multiplexing ID id, which the
// frame carries in place of req.ID, so a caller's request is sent
// without being copied to tag it.
func writeRequestV2(w io.Writer, id uint64, req *Request) error {
	if len(req.Name) > 0xffff || len(req.Node.Addr) > 0xffff || len(req.Op) > 0xffff {
		return fmt.Errorf("wire: request field too long")
	}
	if len(req.Names) > MaxListLen {
		return fmt.Errorf("wire: request carries %d names, limit %d", len(req.Names), MaxListLen)
	}
	for _, n := range req.Names {
		// An unchecked element would truncate its uint16 length prefix
		// and poison the whole multiplexed stream.
		if len(n) > 0xffff {
			return fmt.Errorf("wire: request name of %d bytes too long", len(n))
		}
	}
	if err := checkParts(req.Parts, len(req.Data)); err != nil {
		return err
	}
	return writeV2(w, func(fw frameWriter) {
		fw.u8(kindRequest)
		fw.u64(id)
		fw.str(string(req.Op))
		fw.str(req.Name)
		fw.u32(uint32(len(req.Names)))
		for _, n := range req.Names {
			fw.str(n)
		}
		fw.parts(req.Parts, true)
		fw.data(req.Data)
		fw.node(req.Node)
	})
}

// checkParts refuses a group the frame cannot carry: too many parts, a
// key too long for its length prefix, a range length past its 32 bits,
// or a single payload beside it.
func checkParts(parts []Part, dataLen int) error {
	if len(parts) > MaxListLen {
		return fmt.Errorf("wire: group of %d blocks, limit %d", len(parts), MaxListLen)
	}
	if len(parts) > 0 && dataLen > 0 {
		return fmt.Errorf("wire: message carries both a group and a payload")
	}
	for _, p := range parts {
		if len(p.Key) > 0xffff {
			return fmt.Errorf("wire: block key of %d bytes too long", len(p.Key))
		}
		if p.Len < 0 || p.Len > 0xffffffff {
			return fmt.Errorf("wire: part range of %d bytes", p.Len)
		}
	}
	return nil
}

// readRequestV2 reads one request frame and decodes it into req, which
// holds the frame while Data views it (until req.Release).
func readRequestV2(r io.Reader, req *Request) error {
	f, err := readFrame(r, false)
	if err != nil {
		return err
	}
	if err := decodeRequestV2(f.b, req); err != nil {
		req.Data, req.Parts = nil, req.Parts[:0]
		releaseFrame(&f)
		return err
	}
	req.frame = f
	if len(req.Data) == 0 && len(req.Parts) == 0 {
		req.Release() // nothing views the frame
	} else {
		f.watch()
	}
	return nil
}

// decodeRequestV2 decodes one request frame body into req. req.Data is
// a view into body; nothing else in req aliases it.
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
	req.Data, req.Parts = fr.groupData(req.Parts, true)
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
	if len(resp.Ring) > MaxListLen {
		return fmt.Errorf("wire: response carries %d ring members, limit %d", len(resp.Ring), MaxListLen)
	}
	for _, n := range resp.Ring {
		if len(n.Addr) > 0xffff {
			return fmt.Errorf("wire: ring address of %d bytes too long", len(n.Addr))
		}
	}
	if err := checkParts(resp.Parts, len(resp.Data)); err != nil {
		return err
	}
	return writeV2(w, func(fw frameWriter) {
		fw.u8(kindResponse)
		fw.u64(id)
		var flags byte
		if resp.OK {
			flags = 1
		}
		if resp.Absent {
			flags |= 2
		}
		fw.u8(flags)
		fw.str(resp.Err)
		fw.parts(resp.Parts, false)
		fw.data(resp.Data)
		fw.i64(resp.Capacity)
		fw.i64(resp.Used)
		fw.u32(uint32(resp.Blocks))
		fw.u32(uint32(len(resp.Ring)))
		for _, n := range resp.Ring {
			fw.node(n)
		}
	})
}

// readResponseV2 reads one response frame and decodes it into resp,
// which holds the frame while Data views it (until resp.Release).
func readResponseV2(r io.Reader, resp *Response) error {
	f, err := readFrame(r, true)
	if err != nil {
		return err
	}
	if err := decodeResponseV2(f.b, resp); err != nil {
		resp.Data, resp.Parts = nil, nil
		releaseFrame(&f)
		return err
	}
	resp.frame = f
	if len(resp.Data) == 0 && partBytes(resp.Parts) == 0 {
		resp.Release() // nothing views the frame
	} else {
		f.watch()
	}
	return nil
}

// decodeResponseV2 decodes one response frame body into resp.
// resp.Data is a view into body; nothing else in resp aliases it.
func decodeResponseV2(body []byte, resp *Response) error {
	fr := frameReader{b: body}
	if fr.u8() != kindResponse {
		return errFrameCorrupt
	}
	resp.ID = fr.u64()
	flags := fr.u8()
	resp.OK, resp.Absent = flags&1 != 0, flags&2 != 0
	resp.Err = fr.str()
	resp.Data, resp.Parts = fr.groupData(nil, false)
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

// partBytes sums a group's block lengths.
func partBytes(parts []Part) int {
	n := 0
	for _, p := range parts {
		n += len(p.Data)
	}
	return n
}
