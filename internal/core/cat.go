package core

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// CAT is a file's chunk allocation table (§4.2, Figure 3): one row per
// chunk recording the half-open byte range [Start, End) of the file
// held by that chunk. Because chunk sizes vary, the CAT is the only
// mapping from a file offset to the chunk containing it. Zero-sized
// chunks (failed placements retried at the next chunk number, §4.3)
// appear as rows with Start == End.
type CAT struct {
	File string
	Rows []CATRow

	// hash memoises Hash: every chunk-cache lookup keys on it, and
	// marshaling the table per lookup is far too dear for that.
	hashOnce sync.Once
	hash     uint64
}

// CATRow is one chunk's extent.
type CATRow struct {
	Start int64 // inclusive
	End   int64 // exclusive
	// Sum is the XXH64 fingerprint of the chunk's plaintext bytes
	// (see ChunkSum), 0 when unknown — zero-sized rows, or tables
	// written before content sums existed. A non-zero Sum makes the
	// CAT content-addressed: re-storing a name with different bytes
	// changes its CAT even when the chunk layout is identical, so
	// CAT.Hash works as a true content version (cache keys, ETags).
	Sum uint64
}

// Len returns the number of bytes in the chunk.
func (r CATRow) Len() int64 { return r.End - r.Start }

// Empty reports whether the row is a zero-sized chunk.
func (r CATRow) Empty() bool { return r.Len() == 0 }

// FileSize returns the total file size recorded in the table.
func (c *CAT) FileSize() int64 {
	if len(c.Rows) == 0 {
		return 0
	}
	return c.Rows[len(c.Rows)-1].End
}

// NumChunks returns the number of chunk rows, including empty ones.
func (c *CAT) NumChunks() int { return len(c.Rows) }

// ChunksFor returns the chunk indices whose extents intersect the byte
// range [off, off+length) — the lookup that lets PeerStripe fetch only
// the chunks a partial read touches (§4.1).
func (c *CAT) ChunksFor(off, length int64) []int {
	if length <= 0 {
		return nil
	}
	end := off + length
	var out []int
	for i, r := range c.Rows {
		if r.Empty() {
			continue
		}
		if r.End > off && r.Start < end {
			out = append(out, i)
		}
	}
	return out
}

// Row returns row i.
func (c *CAT) Row(i int) CATRow { return c.Rows[i] }

// Validate checks structural invariants: rows tile the file contiguously
// from offset 0 with no gaps or overlaps.
func (c *CAT) Validate() error {
	var pos int64
	for i, r := range c.Rows {
		if r.Start != pos {
			return fmt.Errorf("core: CAT %s row %d starts at %d, want %d", c.File, i, r.Start, pos)
		}
		if r.End < r.Start {
			return fmt.Errorf("core: CAT %s row %d has negative extent", c.File, i)
		}
		pos = r.End
	}
	return nil
}

// Marshal renders the table in the paper's Figure 3 layout:
// one "(i) start,end" line per chunk, 1-indexed, with the content sum
// appended as a third field, 16 lowercase hex digits, when the row
// carries one. Sum-less rows keep the exact two-field form, so tables
// written before content sums round-trip byte-identically. The bytes
// are appended into one buffer of exactly their size.
func (c *CAT) Marshal() []byte {
	return c.appendRows(make([]byte, 0, c.marshalLen()))
}

// appendRows appends the Marshal form of the rows to b.
func (c *CAT) appendRows(b []byte) []byte {
	for i, r := range c.Rows {
		b = append(b, '(')
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, ')', ' ')
		b = strconv.AppendInt(b, r.Start, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, r.End, 10)
		if r.Sum != 0 {
			b = append(b, ',')
			for shift := 60; shift >= 0; shift -= 4 {
				b = append(b, hexDigits[r.Sum>>uint(shift)&0xf])
			}
		}
		b = append(b, '\n')
	}
	return b
}

const hexDigits = "0123456789abcdef"

// marshalLen is len(c.Marshal()), counted without marshaling.
func (c *CAT) marshalLen() int {
	n := 0
	for i, r := range c.Rows {
		n += len("() ,\n") + decLen(int64(i+1)) + decLen(r.Start) + decLen(r.End)
		if r.Sum != 0 {
			n += 1 + 16
		}
	}
	return n
}

// decLen is the length of v in decimal.
func decLen(v int64) int {
	var b [20]byte
	return len(strconv.AppendInt(b[:0], v, 10))
}

// UnmarshalCAT parses a table for the named file. It accepts exactly
// the form Marshal writes — rows numbered from 1 in order, decimal
// offsets without sign or leading zeros, an optional non-zero sum of 16
// lowercase hex digits, every line ended by a newline — and rows that
// tile the file (Validate), so a table it accepts marshals back to the
// very bytes it was given. A CAT is written only by Marshal; anything
// else came from a corrupt or hostile holder and is refused.
//
// The table keeps nothing of data, and its Hash is computed here, from
// data, since that is the Marshal form.
func UnmarshalCAT(file string, data []byte) (*CAT, error) {
	c := &CAT{File: file}
	// One row per line, and no row is shorter than "(1) 0,0\n": a
	// hostile run of newlines cannot make the rows outgrow the input.
	if n := min(bytes.Count(data, []byte{'\n'}), len(data)/len("(1) 0,0\n")); n > 0 {
		c.Rows = make([]CATRow, 0, n)
	}
	for rest := data; len(rest) > 0; {
		row, tail, ok := parseRow(rest, int64(len(c.Rows)+1))
		if !ok {
			line, _, _ := bytes.Cut(rest, []byte{'\n'})
			if len(line) > 64 {
				line = line[:64]
			}
			return nil, fmt.Errorf("core: CAT %s line %d: %q is not a table row", file, len(c.Rows)+1, line)
		}
		c.Rows = append(c.Rows, row)
		rest = tail
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c.hashOnce.Do(func() {
		var buf [256]byte
		c.hash = xxh64(append(append(append(buf[:0], file...), 0), data...))
	})
	return c, nil
}

// parseRow parses the row numbered idx at the head of b, up to and
// including its newline, and returns what follows it.
func parseRow(b []byte, idx int64) (r CATRow, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '(' {
		return r, nil, false
	}
	n, b, ok := parseDec(b[1:])
	if !ok || n != idx || len(b) < 2 || b[0] != ')' || b[1] != ' ' {
		return r, nil, false
	}
	if r.Start, b, ok = parseDec(b[2:]); !ok || len(b) == 0 || b[0] != ',' {
		return r, nil, false
	}
	if r.End, b, ok = parseDec(b[1:]); !ok || len(b) == 0 {
		return r, nil, false
	}
	if b[0] == ',' {
		if len(b) < 1+16 {
			return r, nil, false
		}
		for _, ch := range b[1 : 1+16] {
			d := strings.IndexByte(hexDigits, ch)
			if d < 0 {
				return r, nil, false
			}
			r.Sum = r.Sum<<4 | uint64(d)
		}
		if r.Sum == 0 {
			return r, nil, false
		}
		b = b[1+16:]
	}
	if len(b) == 0 || b[0] != '\n' {
		return r, nil, false
	}
	return r, b[1:], true
}

// parseDec parses the non-negative decimal at the head of b, in the
// form strconv.AppendInt writes: at least one digit, no leading zero
// unless the number is 0, and no overflow of int64.
func parseDec(b []byte) (v int64, rest []byte, ok bool) {
	i := 0
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		d := int64(b[i] - '0')
		if v > (math.MaxInt64-d)/10 {
			return 0, nil, false
		}
		v = v*10 + d
	}
	if i == 0 || (b[0] == '0' && i > 1) {
		return 0, nil, false
	}
	return v, b[i:], true
}

// SizeBytes returns the marshaled size, used when the CAT itself is
// stored as a block in the pool.
func (c *CAT) SizeBytes() int64 { return int64(c.marshalLen()) }

// Hash returns a stable fingerprint of the table: an XXH64 over the
// file name, a zero byte and the marshaled rows. Two CATs hash equal
// exactly when they describe the same stored layout of the same name,
// which makes the hash usable as a content version: re-storing a name
// writes a new CAT, so anything keyed or stamped with the old hash
// (cached decoded chunks, ETags) is recognizably stale. A parsed table was hashed from the bytes it was parsed from;
// a built one is marshaled once, on the first call, and the hash kept
// (safe for concurrent callers): call it only on fully built tables,
// and do not change a table after.
func (c *CAT) Hash() uint64 {
	c.hashOnce.Do(func() {
		var buf [256]byte
		c.hash = xxh64(c.appendRows(append(append(buf[:0], c.File...), 0)))
	})
	return c.hash
}

// ChunkSum fingerprints one chunk's plaintext bytes for CATRow.Sum:
// an XXH64, with the reserved "no sum" value 0 remapped so a stored
// sum is always non-zero.
func ChunkSum(data []byte) uint64 {
	if s := xxh64(data); s != 0 {
		return s
	}
	return 1
}
