package wire

import (
	"fmt"
	"strconv"
)

// Windowed block uploads. A block larger than one segment does not
// ride a single OpStore exchange (MaxFrame bounds every message, and a
// segment bounds per-transfer memory), so it goes up as a sequence of
// bounded segments instead. Each segment is an ordinary
// request/response round trip — no frame layout of its own. (Reads are
// OpFetch groups, whose parts carry byte ranges.)
//
// The segment control fields ride Request.Names as decimal strings:
//
//	OpStoreWindow: Names = [streamID, seq, total, size, segSize]; Data =
//	    segment bytes. Segments of one stream share a streamID, carry a
//	    0-based seq, and may be in flight concurrently and arrive in any
//	    order: the fixed segSize pins segment seq to byte offset
//	    seq*segSize, so the server places each one directly. total is
//	    the segment count and size the exact block length, both constant
//	    across the stream. Every ack's Capacity carries the bytes staged
//	    so far, the flow-control signal a sender's window advances on; a
//	    window of one is the in-order segment-per-ack exchange.

// DefaultSegment is the streaming transfer segment size: large enough
// to amortize round trips, small enough that a segment frame stays far
// under MaxFrame and per-transfer memory stays bounded.
const DefaultSegment = 4 << 20

// MaxBlockSize bounds one streamed block (1 GiB): a lying size header
// cannot reserve unbounded staging memory on the server.
const MaxBlockSize = 1 << 30

// WindowSegment describes one OpStoreWindow segment. The segment's
// byte range is [Seq*Seg, min((Seq+1)*Seg, Size)).
type WindowSegment struct {
	Stream uint64 // shared by every segment of one block transfer
	Seq    int    // 0-based segment index, any arrival order
	Total  int    // total segments in the stream
	Size   int64  // exact block size in bytes
	Seg    int64  // fixed segment size (the last segment may be short)
}

// EncodeStoreWindow builds the request for one windowed upload segment.
func EncodeStoreWindow(name string, seg WindowSegment, data []byte) *Request {
	return &Request{
		Op:   OpStoreWindow,
		Name: name,
		Names: []string{
			strconv.FormatUint(seg.Stream, 10),
			strconv.Itoa(seg.Seq),
			strconv.Itoa(seg.Total),
			strconv.FormatInt(seg.Size, 10),
			strconv.FormatInt(seg.Seg, 10),
		},
		Data: data,
	}
}

// ParseStoreWindow recovers the segment descriptor from an
// OpStoreWindow request.
func ParseStoreWindow(req *Request) (WindowSegment, error) {
	var seg WindowSegment
	if len(req.Names) != 5 {
		return seg, fmt.Errorf("wire: %s carries %d control fields, want 5", OpStoreWindow, len(req.Names))
	}
	stream, err0 := strconv.ParseUint(req.Names[0], 10, 64)
	sq, err1 := strconv.Atoi(req.Names[1])
	total, err2 := strconv.Atoi(req.Names[2])
	size, err3 := strconv.ParseInt(req.Names[3], 10, 64)
	sg, err4 := strconv.ParseInt(req.Names[4], 10, 64)
	if err0 != nil || err1 != nil || err2 != nil || err3 != nil || err4 != nil ||
		sq < 0 || total <= 0 || sq >= total || size <= 0 || size > MaxBlockSize ||
		sg <= 0 || int64(total) != (size+sg-1)/sg {
		return seg, fmt.Errorf("wire: malformed %s control fields %q", OpStoreWindow, req.Names)
	}
	seg = WindowSegment{Stream: stream, Seq: sq, Total: total, Size: size, Seg: sg}
	return seg, nil
}
