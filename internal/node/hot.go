package node

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"

	"peerstripe/internal/core"
)

// Hot-object promotion: the read-scaling answer for objects a crowd
// hammers at once. A promoted file keeps, next to its erasure-coded
// blocks, `copies` full plaintext replicas of every chunk — stored as
// ordinary blocks named ReplicaName(ChunkName(file, ci), r), so the
// ring's hashing spreads them over different owners than the coded
// blocks. A hot read then costs one block fetch from one of `copies`+
// holders instead of a MinNeeded-block wave plus a decode, and the
// herd fans out across the replica set. Losing the marker or a replica
// only costs performance, never durability — the erasure-coded blocks
// remain authoritative.
//
// A tiny marker block (core.HotName) records the replica count and the
// CAT hash of the layout the replicas were cut from, exactly
// "<copies> <hash, 16 hex digits>". It lives beside CAT replica 0, on
// that replica's owner rather than its own (placeKey), so the load
// every reader makes anyway reads it in the same exchange
// (LoadCATHotCtx). Readers honor it only when its hash matches the CAT
// they opened. A re-store therefore sends no marker traffic: the old
// marker names the old layout and routes no reads, even when an old
// replica happens to match a new chunk's length, and the first reader
// that sees it reclaims the stale replicas (DropHotCtx), as Delete and
// Demote do.

// MaxHotCopies bounds the full-copy replicas per chunk a promotion may
// place. It keeps a runaway promotion from flooding the ring and lets
// Delete sweep a bounded replica range even when the marker is lost.
const MaxHotCopies = 8

// HotStats reports one Promote pass.
type HotStats struct {
	// Chunks counts the non-empty chunks replicated.
	Chunks int
	// Copies is the replica count per chunk actually placed.
	Copies int
	// Bytes counts the replica bytes stored (Chunks × chunk sizes × Copies).
	Bytes int64
}

// HotMarker is a file's hot-promotion marker as a CAT load read it.
type HotMarker struct {
	// Copies is the full-copy replica count per chunk the marker
	// records, 0 when the file has no marker.
	Copies int
	// CATHash is the hash of the CAT the replicas were cut from.
	CATHash uint64
	// Unknown reports that the load could not tell: CAT replica 0 was
	// unreadable and another replica was used, or the marker was
	// malformed.
	Unknown bool
}

// For is the replica count a reader of cat may use: the marker's count
// when the marker is bound to cat, else 0 (read the coded path).
func (h HotMarker) For(cat *core.CAT) int {
	if h.Unknown || h.CATHash != cat.Hash() {
		return 0
	}
	return h.Copies
}

// Stale reports a marker bound to a CAT other than cat: a promotion
// that a re-store outdated, whose replicas no reader uses.
func (h HotMarker) Stale(cat *core.CAT) bool {
	return !h.Unknown && h.Copies > 0 && h.CATHash != cat.Hash()
}

// sweep is the replica count a maintenance path deletes: the marker's,
// bound or not, so stale replicas go too, and every possible count when
// the marker is unknown.
func (h HotMarker) sweep() int {
	if h.Unknown {
		return MaxHotCopies
	}
	return h.Copies
}

// appendHotMarker appends the marker of a promotion to copies replicas
// of the CAT hashing to catHash.
func appendHotMarker(b []byte, copies int, catHash uint64) []byte {
	b = strconv.AppendInt(b, int64(copies), 10)
	b = append(b, ' ')
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[catHash>>uint(shift)&0xf])
	}
	return b
}

// parseHotMarker parses a marker as appendHotMarker writes it; any
// other bytes make an unknown marker.
func parseHotMarker(b []byte) HotMarker {
	var h HotMarker
	i := 0
	for ; i < len(b) && b[i]-'0' <= 9 && h.Copies <= MaxHotCopies; i++ {
		h.Copies = h.Copies*10 + int(b[i]-'0')
	}
	if i == 0 || b[0] == '0' || h.Copies > MaxHotCopies || len(b) != i+1+16 || b[i] != ' ' {
		return HotMarker{Unknown: true}
	}
	for _, ch := range b[i+1:] {
		var d byte
		switch {
		case ch >= '0' && ch <= '9':
			d = ch - '0'
		case ch >= 'a' && ch <= 'f':
			d = ch - 'a' + 10
		default:
			return HotMarker{Unknown: true}
		}
		h.CATHash = h.CATHash<<4 | uint64(d)
	}
	return h
}

// placeKey turns the name in b, which the caller owns, into the key
// that places the named object on the ring: the name itself, except a
// hot marker, which goes where its file's CAT replica 0 goes. The
// marker suffix becomes the CAT suffix in place: both are four bytes.
func placeKey(b []byte) []byte {
	if bytes.HasSuffix(b, hotSuffix) {
		copy(b[len(b)-len(hotSuffix):], core.CATSuffix)
	}
	return b
}

var hotSuffix = []byte(core.HotSuffix)

// PromoteCtx places `copies` full-copy replicas of every non-empty
// chunk of the named file and records the count in the hot marker.
// Each chunk is decoded once from the coded blocks and stored whole
// under the replica names; re-promoting with a different count
// overwrites the marker (a shrink leaves orphaned higher replicas
// until Demote or Delete, which sweep up to MaxHotCopies when the
// marker is unknown).
func (c *Client) PromoteCtx(ctx context.Context, name string, copies int) (HotStats, error) {
	var st HotStats
	if copies < 1 || copies > MaxHotCopies {
		return st, fmt.Errorf("node: promote %q: copies %d outside [1, %d]", name, copies, MaxHotCopies)
	}
	cat, err := c.LoadCATCtx(ctx, name)
	if err != nil {
		return st, err
	}
	var cis []int
	for ci, row := range cat.Rows {
		if !row.Empty() {
			cis = append(cis, ci)
		}
	}
	err = core.ParallelJobsCtx(ctx, len(cis), c.transfers(), func(i int) error {
		ci := cis[i]
		data, err := c.FetchChunk(ctx, cat, ci)
		if err != nil {
			return fmt.Errorf("node: promote %q chunk %d: %w", name, ci, err)
		}
		for r := 1; r <= copies; r++ {
			if err := c.storeBlock(ctx, core.ReplicaName(core.ChunkName(name, ci), r), data); err != nil {
				return fmt.Errorf("node: promote %q chunk %d replica %d: %w", name, ci, r, err)
			}
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	if err := c.storeBlock(ctx, core.HotName(name), appendHotMarker(nil, copies, cat.Hash())); err != nil {
		return st, fmt.Errorf("node: promote %q: store marker: %w", name, err)
	}
	st.Chunks = len(cis)
	st.Copies = copies
	for _, ci := range cis {
		st.Bytes += cat.Rows[ci].Len() * int64(copies)
	}
	return st, nil
}

// FetchChunkCopy fetches full-copy replica r (1-based) of chunk ci of
// a promoted file — one block, no decode — as bytes the caller owns, so
// they can enter a cache. The caller falls back to the erasure-coded
// path when the replica is gone.
func (c *Client) FetchChunkCopy(ctx context.Context, name string, ci, r int) ([]byte, error) {
	return c.fetchBlock(ctx, core.ReplicaName(core.ChunkName(name, ci), r))
}

// DemoteCtx removes the named file's hot marker and chunk replicas,
// returning how many replica blocks were deleted. The marker comes
// with the CAT, in one exchange; when it is unknown the full
// MaxHotCopies replica range is swept. Demoting a file that was never
// promoted, or that is not stored, is a no-op. The erasure-coded
// blocks are untouched — demotion is purely a read-scaling rollback.
func (c *Client) DemoteCtx(ctx context.Context, name string) (int, error) {
	cat, hot, err := c.LoadCATHotCtx(ctx, name)
	if errors.Is(err, ErrNotFound) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return c.DropHotCtx(ctx, cat, hot.sweep())
}

// DropHotCtx deletes the hot marker of cat's file and `copies`
// full-copy replicas of each of cat's non-empty chunks, returning how
// many replica blocks it deleted; copies 0 deletes nothing. It is
// DemoteCtx for a caller that has loaded the CAT and the marker
// already: the reader that finds a stale marker reclaims it so.
func (c *Client) DropHotCtx(ctx context.Context, cat *core.CAT, copies int) (int, error) {
	if copies == 0 {
		return 0, nil
	}
	var names nameList
	addHot(&names, cat, copies)
	if err := c.deleteBlocks(ctx, &names); err != nil {
		return 0, err
	}
	return names.len() - 1, nil
}

// addHot adds to names every full-copy replica block of cat's file for
// a per-chunk replica count of copies, and the hot marker; copies 0
// adds nothing.
func addHot(names *nameList, cat *core.CAT, copies int) {
	if copies == 0 {
		return
	}
	for ci, row := range cat.Rows {
		if row.Empty() {
			continue
		}
		for r := 1; r <= copies; r++ {
			names.add(core.ReplicaName(core.ChunkName(cat.File, ci), r))
		}
	}
	names.add(core.HotName(cat.File))
}
