package main

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"io"
	"strconv"
)

// stream is the seeded byte stream one object version's content comes
// from. It is counter-based (splitmix64 over the 8-byte word index),
// so any range can be regenerated without producing the bytes before
// it, and no whole-object buffer ever exists in the generator — the
// memory numbers the benchmark reports are the system's.
type stream uint64

// streamFor keys a stream by (seed, object name, version).
func streamFor(seed int64, name string, version int) stream {
	h := fnv.New64a()
	h.Write([]byte(strconv.FormatInt(seed, 10)))
	h.Write([]byte{0})
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(version)))
	return stream(mix64(h.Sum64()))
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s stream) word(i uint64) uint64 {
	return mix64(uint64(s) + (i+1)*0x9e3779b97f4a7c15)
}

// fill writes the stream's bytes [off, off+len(p)) into p.
func (s stream) fill(p []byte, off int64) {
	i := uint64(off) / 8
	var w [8]byte
	if r := int(off % 8); r != 0 {
		binary.LittleEndian.PutUint64(w[:], s.word(i))
		p = p[copy(p, w[r:]):]
		i++
	}
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, s.word(i))
		p = p[8:]
		i++
	}
	if len(p) > 0 {
		binary.LittleEndian.PutUint64(w[:], s.word(i))
		copy(p, w[:])
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// object is one stored object version as the harness expects to read
// it back: the stream its bytes come from, its size, and the checksum
// of the whole body (known once the store has consumed the stream).
type object struct {
	name    string
	version int
	key     stream
	size    int64
	sum     uint32
	etag    string // gateway workloads: the tag the PUT response named
}

func newObject(seed int64, name string, version int, size int64) *object {
	return &object{name: name, version: version, key: streamFor(seed, name, version), size: size}
}

// reader streams the object's bytes for a store and leaves the body
// checksum in o.sum once it has been read to the end.
func (o *object) reader() io.Reader { return &objReader{o: o} }

type objReader struct {
	o   *object
	off int64
	sum uint32
}

func (r *objReader) Read(p []byte) (int, error) {
	if r.off >= r.o.size {
		return 0, io.EOF
	}
	if rem := r.o.size - r.off; int64(len(p)) > rem {
		p = p[:rem]
	}
	r.o.key.fill(p, r.off)
	r.sum = crc32.Update(r.sum, castagnoli, p)
	r.off += int64(len(p))
	if r.off == r.o.size {
		r.o.sum = r.sum
	}
	return len(p), nil
}

// fillBytes materialises the whole object into buf (the checkpoint
// workload's StoreBytes image: a job's checkpoint does live in its
// memory) and records the body checksum.
func (o *object) fillBytes(buf []byte) []byte {
	buf = buf[:o.size]
	o.key.fill(buf, 0)
	o.sum = crc32.Checksum(buf, castagnoli)
	return buf
}

// sumWriter is the sink a full read is copied into: it keeps the
// length and checksum of what arrived, never the bytes.
type sumWriter struct {
	n   int64
	sum uint32
}

func (w *sumWriter) Write(p []byte) (int, error) {
	w.sum = crc32.Update(w.sum, castagnoli, p)
	w.n += int64(len(p))
	return len(p), nil
}
