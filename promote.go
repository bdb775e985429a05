package peerstripe

import (
	"context"
	"fmt"
)

// MaxHotCopies bounds the full-copy chunk replicas a Promote may
// place per chunk.
const MaxHotCopies = 8

// PromoteInfo reports one Promote pass.
type PromoteInfo struct {
	// Chunks is the number of non-empty chunks replicated.
	Chunks int
	// Copies is the full-copy replica count placed per chunk.
	Copies int
	// Bytes is the total replica bytes stored.
	Bytes int64
}

// Promote scales the named file for hot reads: it places copies
// (1..MaxHotCopies) full plaintext replicas of every chunk — ordinary
// blocks under the §4.2 naming convention, hashed to different owners
// than the coded blocks — and records the count in a marker so any
// client discovers the promotion. Reads of a promoted file fetch one
// replica block per chunk (rotating across the replica set, so a herd
// fans out over copies+ nodes) instead of fetching a decode wave and
// erasure-decoding; the coded blocks remain authoritative, so losing
// replicas costs read performance, never durability.
//
// Promotion is an explicit capacity trade: it spends
// fileSize × copies of ring storage. The HTTP gateway automates it
// for objects a request herd keeps hitting. Deleting the name demotes
// it. Re-storing the name demotes it for readers at once, since the
// marker is bound to the old bytes' allocation table; the first Open
// after the re-store reclaims the stale replicas in the background.
// Demote rolls a promotion back by hand.
func (c *Client) Promote(ctx context.Context, name string, copies int) (PromoteInfo, error) {
	st, err := c.c.PromoteCtx(ctx, name, copies)
	if err != nil {
		return PromoteInfo{}, fmt.Errorf("peerstripe: promote %q: %w", name, err)
	}
	return PromoteInfo{Chunks: st.Chunks, Copies: st.Copies, Bytes: st.Bytes}, nil
}

// Demote removes the named file's hot-read chunk replicas and
// promotion marker. Demoting a file that was never promoted, or that
// is not stored, is a no-op. The erasure-coded blocks are untouched.
func (c *Client) Demote(ctx context.Context, name string) error {
	if _, err := c.c.DemoteCtx(ctx, name); err != nil {
		return fmt.Errorf("peerstripe: demote %q: %w", name, err)
	}
	return nil
}
