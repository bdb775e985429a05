package core

import (
	"fmt"
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
	// CAT.Hash works as a true content version, and readers can verify
	// full-copy hot replicas against the table they opened.
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
// appended as a third field when the row carries one. Sum-less rows
// keep the exact two-field form, so tables written before content
// sums round-trip byte-identically.
func (c *CAT) Marshal() []byte {
	var b strings.Builder
	for i, r := range c.Rows {
		if r.Sum != 0 {
			fmt.Fprintf(&b, "(%d) %d,%d,%016x\n", i+1, r.Start, r.End, r.Sum)
		} else {
			fmt.Fprintf(&b, "(%d) %d,%d\n", i+1, r.Start, r.End)
		}
	}
	return []byte(b.String())
}

// UnmarshalCAT parses a Figure 3 style table for the named file.
func UnmarshalCAT(file string, data []byte) (*CAT, error) {
	c := &CAT{File: file}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var idx int
		var start, end int64
		var sum uint64
		if _, err := fmt.Sscanf(line, "(%d) %d,%d,%x", &idx, &start, &end, &sum); err != nil {
			sum = 0
			if _, err := fmt.Sscanf(line, "(%d) %d,%d", &idx, &start, &end); err != nil {
				return nil, fmt.Errorf("core: CAT %s line %d: %q: %w", file, ln+1, line, err)
			}
		}
		if idx != len(c.Rows)+1 {
			return nil, fmt.Errorf("core: CAT %s line %d: chunk index %d out of order", file, ln+1, idx)
		}
		c.Rows = append(c.Rows, CATRow{Start: start, End: end, Sum: sum})
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// SizeBytes returns the marshaled size, used when the CAT itself is
// stored as a block in the pool.
func (c *CAT) SizeBytes() int64 { return int64(len(c.Marshal())) }

// Hash returns a stable fingerprint of the table: an XXH64 over the
// file name and the marshaled rows. Two CATs hash equal exactly when
// they describe the same stored layout of the same name, which makes
// the hash usable as a content version: re-storing a name writes a new
// CAT, so anything keyed or stamped with the old hash (cached decoded
// chunks, hot-promotion markers) is recognizably stale. The hash is
// computed on the first call and kept (safe for concurrent callers):
// call it only on fully built tables, and do not change a table after.
func (c *CAT) Hash() uint64 {
	c.hashOnce.Do(func() {
		c.hash = xxh64(append(append([]byte(c.File), 0), c.Marshal()...))
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
