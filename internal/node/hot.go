package node

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"peerstripe/internal/core"
)

// Hot-object promotion: the read-scaling answer for objects a crowd
// hammers at once. A promoted file keeps, next to its erasure-coded
// blocks, `copies` full plaintext replicas of every chunk — stored as
// ordinary blocks named ReplicaName(ChunkName(file, ci), r), so the
// ring's hashing spreads them over different owners than the coded
// blocks. A hot read then costs one block fetch from one of `copies`+
// holders instead of a MinNeeded-block wave plus a decode, and the
// herd fans out across the replica set. A tiny marker block
// (core.HotName) records the replica count so any client can discover
// a promotion; losing the marker or a replica only costs performance,
// never durability — the erasure-coded blocks remain authoritative.
//
// The marker also records the CAT hash of the layout the replicas
// were cut from, and readers honor it only when that hash matches the
// CAT they opened. A re-store whose best-effort demote failed (node
// briefly down, caller gone) therefore leaves harmless orphans: the
// surviving marker names the old layout and routes no reads, even
// when an old replica happens to match a new chunk's length.

// MaxHotCopies bounds the full-copy replicas per chunk a promotion may
// place. It keeps a runaway promotion from flooding the ring and lets
// Delete probe a bounded replica range even when the marker is lost.
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

// PromoteCtx places `copies` full-copy replicas of every non-empty
// chunk of the named file and records the count in the hot marker.
// Each chunk is decoded once from the coded blocks and stored whole
// under the replica names; re-promoting with a different count
// overwrites the marker (a shrink leaves orphaned higher replicas
// until Demote or Delete, which probe up to MaxHotCopies).
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
	marker := fmt.Sprintf("%d %016x", copies, cat.Hash())
	if err := c.storeBlock(ctx, core.HotName(name), []byte(marker)); err != nil {
		return st, fmt.Errorf("node: promote %q: store marker: %w", name, err)
	}
	st.Chunks = len(cis)
	st.Copies = copies
	for _, ci := range cis {
		st.Bytes += cat.Rows[ci].Len() * int64(copies)
	}
	return st, nil
}

// HotCopiesCtx reports how many full-copy chunk replicas the named
// file was promoted with — 0 (and a nil error) when it never was —
// plus the CAT hash the marker was bound to. Readers must compare the
// hash against the CAT they opened and ignore the promotion on
// mismatch; maintenance paths (Demote, Delete) use the count
// regardless, so stale replicas stay sweepable. Markers written
// before hash binding report catHash 0, which no real CAT hashes to
// in practice — old promotions are ignored by readers but remain
// demotable.
func (c *Client) HotCopiesCtx(ctx context.Context, name string) (copies int, catHash uint64, err error) {
	data, err := c.fetchBlock(ctx, core.HotName(name))
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	fields := strings.Fields(string(data))
	bad := func() (int, uint64, error) {
		return 0, 0, fmt.Errorf("node: bad hot marker for %q: %q", name, data)
	}
	if len(fields) < 1 || len(fields) > 2 {
		return bad()
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n < 1 || n > MaxHotCopies {
		return bad()
	}
	var hash uint64
	if len(fields) == 2 {
		hash, err = strconv.ParseUint(fields[1], 16, 64)
		if err != nil {
			return bad()
		}
	}
	return n, hash, nil
}

// FetchChunkCopy fetches full-copy replica r (1-based) of chunk ci of
// a promoted file — one block, no decode — as bytes the caller owns, so
// they can enter a cache. The caller falls back to the erasure-coded
// path when the replica is gone.
func (c *Client) FetchChunkCopy(ctx context.Context, name string, ci, r int) ([]byte, error) {
	return c.fetchBlock(ctx, core.ReplicaName(core.ChunkName(name, ci), r))
}

// DemoteCtx removes the named file's hot marker and chunk replicas,
// returning how many replica blocks were deleted. Demoting a file that
// was never promoted is a no-op. The erasure-coded blocks are
// untouched — demotion is purely a read-scaling rollback.
func (c *Client) DemoteCtx(ctx context.Context, name string) (int, error) {
	copies, _, err := c.HotCopiesCtx(ctx, name)
	if err != nil {
		return 0, err
	}
	if copies == 0 {
		return 0, nil
	}
	cat, err := c.LoadCATCtx(ctx, name)
	if err != nil {
		return 0, err
	}
	var names nameList
	for _, n := range hotReplicaNames(cat, copies) {
		names.add(n)
	}
	names.add(core.HotName(name))
	if err := c.deleteBlocks(ctx, &names); err != nil {
		return 0, err
	}
	return names.len() - 1, nil
}

// hotReplicaNames lists every full-copy replica block of a promoted
// file with the given per-chunk replica count.
func hotReplicaNames(cat *core.CAT, copies int) []string {
	var names []string
	for ci, row := range cat.Rows {
		if row.Empty() {
			continue
		}
		for r := 1; r <= copies; r++ {
			names = append(names, core.ReplicaName(core.ChunkName(cat.File, ci), r))
		}
	}
	return names
}
