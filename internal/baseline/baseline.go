// Package baseline implements the two comparison systems of §6.1 on the
// same overlay and pool as PeerStripe:
//
//   - PAST (Rowstron & Druschel, SOSP'01): whole files stored on the
//     single node their identifier maps to, with the salted-rehash retry
//     mechanism on refusal and optional k-replication.
//   - CFS (Dabek et al., SOSP'01): files split into fixed-size blocks,
//     each stored at its own DHT target with per-block retries. The
//     paper configures 4 MB blocks for its large-file trace (the
//     original CFS used 8 KB).
//
// Both report the same accounting as sim.Store so the Figure 7/8/9 and
// Table 1 comparisons are apples-to-apples.
package baseline

import (
	"fmt"

	"peerstripe/internal/sim"
)

// PAST stores whole files at their key's owner.
type PAST struct {
	Pool *sim.Pool
	// Retries is the number of salted rehash attempts after the first
	// refusal (the paper's "retry mechanism that essentially rehashes
	// the file name with a new salt value").
	Retries int
	// Replicas is the PAST replication factor k; §6.1 sets 1 (the
	// stored copy only).
	Replicas int

	FilesStored int
	FilesFailed int
	BytesStored int64
	BytesFailed int64
}

// NewPAST returns a PAST instance with the §6.1 configuration. The
// default retry budget is 0, matching the paper's §3 failure model
// ("the probability of a store to fail in PAST is simply p"); raise
// Retries to study the salted-rehash mechanism.
func NewPAST(pool *sim.Pool) *PAST {
	return &PAST{Pool: pool, Retries: 0, Replicas: 1}
}

// saltName derives the r-th salted name of a file.
func saltName(name string, r int) string {
	if r == 0 {
		return name
	}
	return fmt.Sprintf("%s#salt%d", name, r)
}

// StoreFile stores the whole file on a single node, retrying with fresh
// salts on refusal. Replication stores the same bytes on the target's
// identifier-space neighbors.
func (p *PAST) StoreFile(name string, size int64) bool {
	for r := 0; r <= p.Retries; r++ {
		sn := saltName(name, r)
		node := p.Pool.Lookup(sn)
		if node == nil || node.Free() < size*int64(p.Replicas) {
			continue
		}
		if p.Pool.StoreBlock(sn, size) == nil {
			continue
		}
		// Additional replicas on identifier-space neighbors (k-1 more).
		placed := 1
		for i := 1; i < p.Replicas; i++ {
			rn := fmt.Sprintf("%s@rep%d", sn, i)
			for _, nb := range p.Pool.Net.Neighbors(node.Overlay.ID, 2*p.Replicas) {
				nbn, ok := p.Pool.Node(nb.ID)
				if !ok {
					continue
				}
				if nbn.Store(rn, size) {
					p.Pool.TotalUsed += size
					placed++
					break
				}
			}
		}
		p.FilesStored++
		p.BytesStored += size
		return true
	}
	p.FilesFailed++
	p.BytesFailed += size
	return false
}

// CFS stores files as fixed-size blocks.
type CFS struct {
	Pool *sim.Pool
	// BlockSize is the fixed block size; §6.1 uses 4 MB.
	BlockSize int64
	// Retries is the per-block salted retry budget.
	Retries int

	FilesStored int
	FilesFailed int
	BytesStored int64
	BytesFailed int64
	// BlocksPerFile accumulates chunk counts for Table 1.
	TotalBlocks int64
}

// NewCFS returns a CFS instance with the §6.1 configuration.
func NewCFS(pool *sim.Pool, blockSize int64) *CFS {
	return &CFS{Pool: pool, BlockSize: blockSize, Retries: 3}
}

// NumBlocks returns the number of fixed-size blocks a file needs.
func (c *CFS) NumBlocks(size int64) int64 {
	if size <= 0 {
		return 0
	}
	return (size + c.BlockSize - 1) / c.BlockSize
}

// StoreFile splits the file into fixed blocks and stores each at its
// DHT target, retrying per block. The store succeeds only if every
// block lands ("we considered a file insertion a success only if all
// the chunks of the files were successfully stored"); on failure the
// placed blocks are rolled back.
func (c *CFS) StoreFile(name string, size int64) bool {
	nb := c.NumBlocks(size)
	var placed []string
	rollback := func() {
		for _, bn := range placed {
			c.Pool.DeleteBlock(bn)
		}
	}
	for b := int64(0); b < nb; b++ {
		bsz := c.BlockSize
		if rem := size - b*c.BlockSize; rem < bsz {
			bsz = rem
		}
		stored := false
		for r := 0; r <= c.Retries; r++ {
			bn := saltName(fmt.Sprintf("%s_%d", name, b), r)
			if c.Pool.StoreBlock(bn, bsz) != nil {
				placed = append(placed, bn)
				stored = true
				break
			}
		}
		if !stored {
			rollback()
			c.FilesFailed++
			c.BytesFailed += size
			return false
		}
	}
	placedCount := int64(len(placed))
	c.TotalBlocks += placedCount
	c.FilesStored++
	c.BytesStored += size
	return true
}
