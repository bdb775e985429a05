package node

import (
	"context"
	"fmt"
	"strconv"

	"peerstripe/internal/core"
	"peerstripe/internal/ids"
	"peerstripe/internal/wire"
)

// Owner groups. A chunk's m blocks go to the owners of their names,
// and every owner gets its share in one exchange: one OpCapBatch probe,
// one OpStore, one OpFetch and one OpDelete per owner, the OpCapBatch
// pattern applied to data (see wire.Part). A group is split only where
// its payload would pass one wire segment, so every frame stays one
// the frame pool keeps; a block larger than a segment moves alone, as
// windowed or ranged segments. A delete group carries names only and
// is split only at wire.MaxListLen.

// ownerGroup is the blocks of one set — a chunk's, or a list of names —
// that one owner holds, in set order: block idx[i] is named by the
// set's prefix followed by parts[i].Key.
type ownerGroup struct {
	addr  string
	parts []wire.Part
	idx   []int
}

// groupByOwner partitions the n blocks named prefix+key(i) by owner.
// The groups share one backing for their parts and one for their
// indices; the keys are the caller's, not copied.
func (c *Client) groupByOwner(prefix string, n int, key func(i int) []byte) ([]ownerGroup, error) {
	ring := c.view()
	if len(ring) == 0 {
		return nil, fmt.Errorf("%w: empty ring", ErrRingUnavailable)
	}
	// member[i] is block i's owner until the groups are known, then
	// its group.
	member := make([]int, n)
	var nb [256]byte
	for i := range member {
		name := append(append(nb[:0], prefix...), key(i)...)
		member[i] = ownerAt(ring, ids.FromBytes(name))
	}
	var owners []int
	count := make([]int, 0, min(n, len(ring)))
	for i, o := range member {
		g := 0
		for g < len(owners) && owners[g] != o {
			g++
		}
		if g == len(owners) {
			owners = append(owners, o)
			count = append(count, 0)
		}
		member[i] = g
		count[g]++
	}
	groups := make([]ownerGroup, len(owners))
	parts := make([]wire.Part, n)
	idx := make([]int, n)
	at := 0
	for g, o := range owners {
		groups[g] = ownerGroup{addr: ring[o].Addr, parts: parts[at : at : at+count[g]], idx: idx[at : at : at+count[g]]}
		at += count[g]
	}
	for i, g := range member {
		gr := &groups[g]
		gr.parts = append(gr.parts, wire.Part{Key: key(i)})
		gr.idx = append(gr.idx, i)
	}
	return groups, nil
}

// ownerAt returns the position in ring of the member numerically
// closest to key (see OwnerOf).
func ownerAt(ring []wire.NodeInfo, key ids.ID) int {
	best, bestD := 0, key.Dist(ring[0].ID)
	for i := 1; i < len(ring); i++ {
		if d := key.Dist(ring[i].ID); d.Cmp(bestD) < 0 {
			best, bestD = i, d
		}
	}
	return best
}

// groupFrame is one exchange of an owner group: a run of its parts,
// with their indices in the set.
type groupFrame struct {
	addr  string
	parts []wire.Part
	idx   []int
}

// splitFrames cuts owner groups into exchanges of at most maxBytes of
// payload, as size measures a part, and at most wire.MaxListLen parts.
// A part larger than maxBytes is a frame of its own.
func splitFrames(groups []ownerGroup, maxBytes int, size func(wire.Part) int) []groupFrame {
	var frames []groupFrame
	for _, g := range groups {
		lo, held := 0, 0
		for i, p := range g.parts {
			n := size(p)
			if i > lo && (held+n > maxBytes || i-lo == wire.MaxListLen) {
				frames = append(frames, groupFrame{g.addr, g.parts[lo:i], g.idx[lo:i]})
				lo, held = i, 0
			}
			held += n
		}
		if lo < len(g.parts) {
			frames = append(frames, groupFrame{g.addr, g.parts[lo:], g.idx[lo:]})
		}
	}
	return frames
}

// storeGroups uploads owner groups whose parts carry their blocks'
// bytes: one OpStore per frame of at most one segment, and a block
// larger than a segment as windowed segments of its own, fanned out
// over the transfer bound. Every upload call has returned when it does.
func (c *Client) storeGroups(ctx context.Context, prefix string, groups []ownerGroup) error {
	seg := c.cfg.Segment
	frames := splitFrames(groups, seg, func(p wire.Part) int { return len(p.Data) })
	return core.ParallelJobsCtx(ctx, len(frames), c.transfers, func(i int) error {
		f := frames[i]
		if len(f.parts) == 1 && len(f.parts[0].Data) > seg {
			name := prefix + string(f.parts[0].Key)
			if err := c.windowStoreBlock(ctx, f.addr, name, f.parts[0].Data); err != nil {
				return fmt.Errorf("node: store block %s: %w", name, err)
			}
			return nil
		}
		if _, err := c.call(ctx, f.addr, &wire.Request{Op: wire.OpStore, Name: prefix, Parts: f.parts}); err != nil {
			return fmt.Errorf("node: store %d blocks %s… at %s: %w", len(f.parts), prefix, f.addr, err)
		}
		return nil
	})
}

// fetchGroup reads the blocks prefix+Key of parts from their owner at
// addr in one exchange. Each block comes back as a view into the
// response frame, in order, in the Data of the returned parts, and a
// block the owner does not hold as a part marked Absent; release rel
// once done with them.
func (c *Client) fetchGroup(ctx context.Context, addr, prefix string, parts []wire.Part) (got []wire.Part, rel core.Releaser, err error) {
	resp, err := c.call(ctx, addr, &wire.Request{Op: wire.OpFetch, Name: prefix, Parts: parts})
	if err != nil {
		return nil, nil, err
	}
	if len(resp.Parts) != len(parts) {
		resp.Release()
		return nil, nil, fmt.Errorf("node: fetch of %d blocks %s… at %s answered with %d", len(parts), prefix, addr, len(resp.Parts))
	}
	return resp.Parts, resp, nil
}

// fetchParts is the codec's group fetch (core.GroupFetchFunc): the
// parts of chunk ci of file, whose blocks share an owner, go to it as
// one OpFetch group of ranged parts, each answer a view into the
// response frame until rel is released. A part too large for one frame
// goes alone, as ranged parts of a segment each (see readRange).
func (c *Client) fetchParts(ctx context.Context, file string, ci int, parts []core.Part, progress func(int)) (core.Releaser, bool) {
	ring := c.view()
	if len(ring) == 0 {
		return nil, false
	}
	addr := ring[blockOwner(ring, file, ci, parts[0].Block)].Addr
	prefix := core.BlockPrefix(file, ci)
	if p := &parts[0]; len(parts) == 1 && p.Len > maxSingleFrameBlock {
		buf := make([]byte, p.Len)
		if c.readRange(ctx, addr, prefix+string(c.blockKey(p.Block)), p.Off, buf, progress) != nil {
			return nil, false
		}
		p.Data = buf
		return nil, true
	}
	req := make([]wire.Part, len(parts))
	for i, p := range parts {
		req[i] = wire.Part{Key: c.blockKey(p.Block), Off: p.Off, Len: p.Len}
	}
	got, rel, err := c.fetchGroup(ctx, addr, prefix, req)
	if err != nil {
		return nil, false
	}
	n := 0
	for i, p := range got {
		if !p.Absent {
			parts[i].Data = p.Data
			n += len(p.Data)
		}
	}
	if progress != nil {
		progress(n)
	}
	return rel, true
}

// readRange fills dst with bytes [off, off+len(dst)) of block name held
// at addr, as ranged parts of one segment each, streamWindow in flight.
// Each answer is copied out of its frame only once it is known to be
// exactly the length asked for; progress, when non-nil, hears of each.
func (c *Client) readRange(ctx context.Context, addr, name string, off int64, dst []byte, progress func(int)) error {
	seg := int64(c.cfg.Segment)
	size := int64(len(dst))
	return core.ParallelJobsCtx(ctx, int((size+seg-1)/seg), streamWindow, func(i int) error {
		at := int64(i) * seg
		want := min(seg, size-at)
		got, rel, err := c.fetchGroup(ctx, addr, name, []wire.Part{{Off: off + at, Len: want}})
		if err != nil {
			return err
		}
		defer rel.Release()
		if int64(len(got[0].Data)) != want {
			return fmt.Errorf("node: fetch %s: got %d of %d bytes at %d", name, len(got[0].Data), want, off+at)
		}
		copy(dst[at:], got[0].Data)
		if progress != nil {
			progress(int(want))
		}
		return nil
	})
}

// holder is the codec's Holder: the ring position of a block's owner.
func (c *Client) holder(file string, ci, e int) int {
	ring := c.view()
	if len(ring) == 0 {
		return 0
	}
	return blockOwner(ring, file, ci, e)
}

// blockOwner is the position in ring of the owner of block e of chunk
// ci of file, found without making the block's name a string.
func blockOwner(ring []wire.NodeInfo, file string, ci, e int) int {
	var nb [256]byte
	return ownerAt(ring, ids.FromBytes(core.AppendBlockName(nb[:0], file, ci, e)))
}

// view is the client's membership view, shared: the ring is replaced
// wholesale, never written in place, so it is read without a copy.
func (c *Client) view() []wire.NodeInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring
}

// blockKey is block e's key within its chunk's group: e in decimal,
// shared by every chunk, made once per client for the code's blocks.
func (c *Client) blockKey(e int) []byte { return c.blockKeys[e] }

// blockKeys makes the keys of blocks 0..m-1.
func blockKeys(m int) [][]byte {
	var l nameList
	for e := 0; e < m; e++ {
		l.b = strconv.AppendInt(l.b, int64(e), 10)
		l.ends = append(l.ends, len(l.b))
	}
	keys := make([][]byte, m)
	for e := range keys {
		keys[e] = l.name(e)
	}
	return keys
}

// nameList is a list of block names in one buffer: a file's names cost
// one growing buffer, not a string each.
type nameList struct {
	b    []byte
	ends []int
}

func (l *nameList) add(name string) {
	l.b = append(l.b, name...)
	l.ends = append(l.ends, len(l.b))
}

func (l *nameList) addBlock(file string, ci, e int) {
	l.b = core.AppendBlockName(l.b, file, ci, e)
	l.ends = append(l.ends, len(l.b))
}

func (l *nameList) len() int { return len(l.ends) }

func (l *nameList) name(i int) []byte {
	lo := 0
	if i > 0 {
		lo = l.ends[i-1]
	}
	return l.b[lo:l.ends[i]:l.ends[i]]
}

// deleteBlocks removes the listed blocks with one OpDelete per owner,
// fanned out over the transfer bound. Deleting a block its owner does
// not hold succeeds.
func (c *Client) deleteBlocks(ctx context.Context, names *nameList) error {
	groups, err := c.groupByOwner("", names.len(), names.name)
	if err != nil {
		return err
	}
	frames := splitFrames(groups, 0, func(wire.Part) int { return 0 })
	return core.ParallelJobsCtx(ctx, len(frames), c.transfers, func(i int) error {
		_, err := c.call(ctx, frames[i].addr, &wire.Request{Op: wire.OpDelete, Parts: frames[i].parts})
		return err
	})
}
