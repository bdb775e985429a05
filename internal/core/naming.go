// Package core implements PeerStripe, the paper's primary contribution
// (§4): a contributory storage system that stores large files as
// variable-size chunks sized by live getCapacity probes, protects each
// chunk with per-chunk erasure coding, tracks chunk extents in a chunk
// allocation table (CAT), and repairs lost encoded blocks from leaf-set
// neighbors on participant failure.
package core

import (
	"strconv"
	"strings"
)

// Naming convention (§4.2): chunks are filename_ChunkNo and encoded
// blocks are filename_ChunkNo_ECB. The convention lets any node derive
// the owning file of a block (and vice versa) with no mapping state;
// the price is that renaming a stored file is expensive, which the
// paper argues is rare for content-named large files.

// CATSuffix is appended to a file name to name its chunk allocation
// table (stored in the p2p storage like any block, §4.2).
const CATSuffix = ".CAT"

// Names are concatenated, not formatted: every stored block costs one
// name, and concatenation is one allocation (strconv.Itoa returns the
// small chunk and block numbers without one).

// ChunkName returns the name of chunk i of the file.
func ChunkName(file string, chunk int) string {
	return file + "_" + strconv.Itoa(chunk)
}

// BlockName returns the name of encoded block ecb of chunk i.
func BlockName(file string, chunk, ecb int) string {
	return file + "_" + strconv.Itoa(chunk) + "_" + strconv.Itoa(ecb)
}

// BlockPrefix returns what the names of chunk i's blocks share:
// BlockName(file, chunk, ecb) is BlockPrefix(file, chunk) followed by
// ecb in decimal. A group of a chunk's blocks names them by it.
func BlockPrefix(file string, chunk int) string {
	return file + "_" + strconv.Itoa(chunk) + "_"
}

// AppendBlockName appends BlockName(file, chunk, ecb) to dst, for a
// caller that hashes or sends the name without making it a string.
func AppendBlockName(dst []byte, file string, chunk, ecb int) []byte {
	dst = append(dst, file...)
	dst = append(dst, '_')
	dst = strconv.AppendInt(dst, int64(chunk), 10)
	dst = append(dst, '_')
	return strconv.AppendInt(dst, int64(ecb), 10)
}

// CATName returns the name under which the file's CAT is stored.
func CATName(file string) string { return file + CATSuffix }

// ReplicaName returns the name of replica r of the named object; used
// for the neighbor replicas of CAT files (§4.4) and for the full-copy
// chunk replicas of promoted hot files.
func ReplicaName(name string, r int) string {
	if r == 0 {
		return name
	}
	return name + "~r" + strconv.Itoa(r)
}

// HotSuffix is appended to a file name to name its hot-promotion
// marker: a tiny block recording how many full-copy replicas of each
// chunk were placed when the file was promoted for hot reads. Readers
// that find the marker fetch chunk replicas (one block, no decode)
// instead of erasure-decoding; the replicas live at
// ReplicaName(ChunkName(file, ci), 1..copies).
const HotSuffix = ".HOT"

// HotName returns the name under which the file's hot-promotion
// marker is stored.
func HotName(file string) string { return file + HotSuffix }

// ParseBlockName splits a block name back into (file, chunk, ecb).
// File names may themselves contain underscores; the two trailing
// numeric fields disambiguate, exactly as the paper's convention
// requires.
func ParseBlockName(name string) (file string, chunk, ecb int, ok bool) {
	i := strings.LastIndexByte(name, '_')
	if i <= 0 {
		return "", 0, 0, false
	}
	e, err := strconv.Atoi(name[i+1:])
	if err != nil || e < 0 {
		return "", 0, 0, false
	}
	rest := name[:i]
	j := strings.LastIndexByte(rest, '_')
	if j <= 0 {
		return "", 0, 0, false
	}
	c, err := strconv.Atoi(rest[j+1:])
	if err != nil || c < 0 {
		return "", 0, 0, false
	}
	return rest[:j], c, e, true
}

// IsCATName reports whether name denotes a CAT (or CAT replica) and
// returns the owning file.
func IsCATName(name string) (file string, replica int, ok bool) {
	base := name
	if k := strings.LastIndex(name, "~r"); k > 0 {
		r, err := strconv.Atoi(name[k+2:])
		if err == nil && r > 0 {
			base = name[:k]
			replica = r
		}
	}
	if !strings.HasSuffix(base, CATSuffix) {
		return "", 0, false
	}
	return strings.TrimSuffix(base, CATSuffix), replica, true
}
