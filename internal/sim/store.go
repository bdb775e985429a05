package sim

import (
	"fmt"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/ids"
)

// Config parameterises a PeerStripe store.
type Config struct {
	// Spec is the per-chunk erasure coding applied (§4.2). Use
	// erasure.NullSpec for no coding (the §6.1 configuration).
	Spec erasure.Spec
	// MaxZeroChunks bounds consecutive zero-sized chunks before a store
	// fails (§4.3). The paper's simulations use 5.
	MaxZeroChunks int
	// CATReplicas is the number of extra neighbor replicas kept of each
	// CAT file (§4.4).
	CATReplicas int
	// MaxChunkSize optionally caps chunk sizes (the §4.5 trade-off
	// hook; 0 = uncapped, the paper's setting).
	MaxChunkSize int64
	// Rateless marks the coding as rateless (online code): lost blocks
	// may be re-created under fresh names at new locations instead of
	// on the overloaded successor (§4.4, the alternative the paper
	// adopted).
	Rateless bool
}

// DefaultConfig returns the base configuration: no error coding,
// zero-chunk limit 5, CAT replicated on two neighbors, uncapped chunks.
func DefaultConfig() Config {
	return Config{Spec: erasure.NullSpec, MaxZeroChunks: 5, CATReplicas: 2}
}

// PaperConfig returns the calibrated §6.1 configuration. The paper
// states nodes advertised their entire capacity, yet its Table 1
// reports 3.72 chunks per file averaging 81.28 MB — for a 243 MB mean
// file that is only consistent with an effective per-block
// advertisement near 100 MB (three ~100 MB chunks average 81 MB).
// Adopting MaxChunkSize = 100 MB reproduces Table 1 and, downstream,
// the Figure 10 availability curves (see EXPERIMENTS.md). The §4.3
// local-policy hook is exactly this knob.
func PaperConfig() Config {
	c := DefaultConfig()
	c.MaxChunkSize = 100 << 20
	return c
}

// fileState tracks a stored file for availability accounting and repair.
type fileState struct {
	cat           *core.CAT
	blockSizes    []int64 // per chunk; 0 for empty chunks
	survivors     []int   // live encoded blocks per chunk
	nextECB       []int   // next fresh block index (rateless repair naming)
	catAlive      int     // surviving core.CAT replicas
	catReplicaSeq int     // counter for re-created core.CAT replica names
	unavail       bool
}

// StoreResult reports the outcome of one file store.
type StoreResult struct {
	File string
	OK   bool
	// Chunks is the number of non-empty chunks created.
	Chunks int
	// ZeroChunks counts zero-sized placeholder chunks.
	ZeroChunks int
	// ChunkSizes lists the non-empty chunk sizes in order.
	ChunkSizes []int64
	// LogicalBytes is the file size stored (0 when !OK).
	LogicalBytes int64
	// RawBytes is the pool space consumed including coding redundancy
	// and CAT replicas.
	RawBytes int64
	// Err explains a failed store.
	Err error
}

// Store is a PeerStripe instance bound to a simulated pool.
type Store struct {
	Pool *Pool
	Cfg  Config

	files  map[string]*fileState
	failed map[ids.ID]bool // nodes already failed via FailNode (idempotence)

	// Aggregate accounting the experiments read.
	FilesStored  int
	FilesFailed  int
	BytesStored  int64 // logical bytes successfully stored
	BytesFailed  int64 // logical bytes of failed stores
	FilesLost    int   // files that became unavailable after failures
	BytesLostRaw int64 // chunk bytes made undecodable by failures
}

// NewStore builds a PeerStripe store over the pool.
func NewStore(pool *Pool, cfg Config) *Store {
	if cfg.MaxZeroChunks <= 0 {
		cfg.MaxZeroChunks = 5
	}
	if cfg.Spec.DataBlocks <= 0 {
		cfg.Spec = erasure.NullSpec
	}
	return &Store{Pool: pool, Cfg: cfg, files: make(map[string]*fileState)}
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// StoreFile stores a file of the given logical size, implementing the
// §4.3 procedure: derive the next chunk's encoded block names, probe
// the responsible nodes with getCapacity, size the chunk to the minimum
// advertised block capacity times n, place the m encoded blocks, and
// repeat; a refused placement becomes a zero-sized chunk, and exceeding
// the consecutive-zero-chunk limit fails the store with rollback.
func (s *Store) StoreFile(name string, size int64) StoreResult {
	if _, dup := s.files[name]; dup {
		return StoreResult{File: name, Err: fmt.Errorf("sim: %q already stored", name)}
	}
	res := StoreResult{File: name}
	spec := s.Cfg.Spec
	n64, m := int64(spec.DataBlocks), spec.TotalBlocks

	fs := &fileState{cat: &core.CAT{File: name}}
	var placed []string // block names placed, for rollback
	remaining := size
	zeroRun := 0
	pos := int64(0)
	chunk := 0

	rollback := func() {
		for _, bn := range placed {
			s.Pool.DeleteBlock(bn)
		}
	}

	for remaining > 0 {
		// Probe: create the encoded block names of this chunk (names
		// only, no data yet) and ask each target its capacity.
		minCap := int64(-1)
		targets := make([]*StoreNode, m)
		for e := 0; e < m; e++ {
			node := s.Pool.Lookup(core.BlockName(name, chunk, e))
			targets[e] = node
			var c int64
			if node != nil {
				c = node.GetCapacity()
			}
			if minCap < 0 || c < minCap {
				minCap = c
			}
		}
		maxBlock := minCap
		if s.Cfg.MaxChunkSize > 0 {
			if cap := ceilDiv(s.Cfg.MaxChunkSize, n64); cap < maxBlock {
				maxBlock = cap
			}
		}

		chunkBytes := n64 * maxBlock
		if chunkBytes > remaining {
			chunkBytes = remaining
		}
		ok := maxBlock > 0
		var blockSize int64
		if ok {
			blockSize = ceilDiv(chunkBytes, n64)
			// Place the m encoded blocks; any refusal (e.g. two blocks
			// of one chunk mapping to the same nearly-full node — the
			// probe/store race of §4.3) voids the chunk.
			var thisChunk []string
			for e := 0; e < m; e++ {
				bn := core.BlockName(name, chunk, e)
				if s.Pool.StoreBlock(bn, blockSize) == nil {
					ok = false
					for _, pb := range thisChunk {
						s.Pool.DeleteBlock(pb)
					}
					break
				}
				thisChunk = append(thisChunk, bn)
			}
			if ok {
				placed = append(placed, thisChunk...)
				res.RawBytes += int64(m) * blockSize
			}
		}

		if !ok {
			// Zero-sized chunk: skip this chunk number and retry at the
			// next (the built-in retry of §4.3).
			fs.cat.Rows = append(fs.cat.Rows, core.CATRow{Start: pos, End: pos})
			fs.blockSizes = append(fs.blockSizes, 0)
			fs.survivors = append(fs.survivors, 0)
			fs.nextECB = append(fs.nextECB, m)
			res.ZeroChunks++
			zeroRun++
			chunk++
			if zeroRun > s.Cfg.MaxZeroChunks {
				rollback()
				res.Err = fmt.Errorf("%w: %q: %d consecutive zero-sized chunks",
					core.ErrStoreFailed, name, zeroRun)
				s.FilesFailed++
				s.BytesFailed += size
				return res
			}
			continue
		}

		zeroRun = 0
		fs.cat.Rows = append(fs.cat.Rows, core.CATRow{Start: pos, End: pos + chunkBytes})
		fs.blockSizes = append(fs.blockSizes, blockSize)
		fs.survivors = append(fs.survivors, m)
		fs.nextECB = append(fs.nextECB, m)
		res.Chunks++
		res.ChunkSizes = append(res.ChunkSizes, chunkBytes)
		pos += chunkBytes
		remaining -= chunkBytes
		chunk++
	}

	// Store the CAT and its neighbor replicas (§4.4). Because varying
	// chunks can leave nodes exactly full, a CAT placement may be
	// refused; additional replica indices act as salted retries so the
	// tiny table always finds a home while any space remains.
	catSize := fs.cat.SizeBytes()
	want := s.Cfg.CATReplicas + 1
	for r := 0; r < want+8 && fs.catAlive < want; r++ {
		if s.Pool.StoreBlock(core.ReplicaName(core.CATName(name), r), catSize) != nil {
			fs.catAlive++
			res.RawBytes += catSize
		}
	}
	if fs.catAlive == 0 && size > 0 {
		// Pool so full even the tiny CAT cannot land: fail the store.
		rollback()
		res.Err = fmt.Errorf("%w: %q: could not place CAT", core.ErrStoreFailed, name)
		s.FilesFailed++
		s.BytesFailed += size
		return res
	}

	s.files[name] = fs
	res.OK = true
	res.LogicalBytes = size
	s.FilesStored++
	s.BytesStored += size
	return res
}

// CAT returns the stored file's chunk allocation table.
func (s *Store) CAT(name string) (*core.CAT, bool) {
	fs, ok := s.files[name]
	if !ok {
		return nil, false
	}
	return fs.cat, true
}

// Available reports whether every chunk of the file is still decodable:
// at least MinNeeded of its encoded blocks survive (§6.2's availability
// criterion: "a file [is] available only if all the chunks of the file
// could be retrieved").
func (s *Store) Available(name string) bool {
	fs, ok := s.files[name]
	if !ok || fs.unavail {
		return false
	}
	return true
}

// RetrieveStats reports the cost of a (simulated) retrieval.
type RetrieveStats struct {
	Chunks       int   // chunks touched
	BlockFetches int   // encoded blocks fetched
	Bytes        int64 // encoded bytes transferred
	Lookups      int   // overlay lookUp messages issued
}

// Retrieve simulates reading [off, off+length) of the file: locate the
// CAT, select the chunks the range touches, and fetch MinNeeded encoded
// blocks per chunk. It returns the transfer/lookup cost.
func (s *Store) Retrieve(name string, off, length int64) (RetrieveStats, error) {
	var st RetrieveStats
	fs, ok := s.files[name]
	if !ok {
		return st, fmt.Errorf("sim: %q not stored", name)
	}
	if fs.unavail {
		return st, fmt.Errorf("%w: %q", core.ErrUnavailable, name)
	}
	// One lookup locates the CAT (or a replica).
	st.Lookups++
	s.Pool.Lookup(core.CATName(name))
	for _, ci := range fs.cat.ChunksFor(off, length) {
		st.Chunks++
		need := s.Cfg.Spec.MinNeeded
		if fs.survivors[ci] < need {
			return st, fmt.Errorf("%w: %q chunk %d", core.ErrUnavailable, name, ci)
		}
		st.BlockFetches += need
		st.Bytes += int64(need) * fs.blockSizes[ci]
		st.Lookups += need
	}
	return st, nil
}

// RecreateCAT models the §4.4 CAT reconstruction path: chunks are
// probed incrementally by name until MaxZeroChunks+1 consecutive probes
// miss, which bounds the search. It returns the reconstructed table and
// the number of overlay lookups spent.
func (s *Store) RecreateCAT(name string) (*core.CAT, int, error) {
	fs, ok := s.files[name]
	if !ok {
		return nil, 0, fmt.Errorf("sim: %q not stored", name)
	}
	lookups := 0
	rebuilt := &core.CAT{File: name}
	misses := 0
	pos := int64(0)
	for chunk := 0; misses <= s.Cfg.MaxZeroChunks; chunk++ {
		lookups++ // probe for block 0 of this chunk
		if chunk < len(fs.blockSizes) && fs.blockSizes[chunk] > 0 {
			misses = 0
			sz := fs.cat.Rows[chunk].Len()
			rebuilt.Rows = append(rebuilt.Rows, core.CATRow{Start: pos, End: pos + sz})
			pos += sz
		} else {
			misses++
			rebuilt.Rows = append(rebuilt.Rows, core.CATRow{Start: pos, End: pos})
		}
	}
	// Trim the trailing miss probes (they are beyond the end of file).
	rebuilt.Rows = rebuilt.Rows[:len(rebuilt.Rows)-misses]
	return rebuilt, lookups, nil
}

// DeleteFile removes a stored file: every encoded block (including any
// rateless replacements), the CAT and its replicas, and the index
// entry. It returns the pool bytes released.
func (s *Store) DeleteFile(name string) (int64, error) {
	fs, ok := s.files[name]
	if !ok {
		return 0, fmt.Errorf("sim: delete: %q not stored", name)
	}
	var released int64
	for ci := range fs.cat.Rows {
		// Original indices plus any fresh ones minted by repair.
		for e := 0; e < fs.nextECB[ci]; e++ {
			bn := core.BlockName(name, ci, e)
			if owner := s.Pool.OwnerOf(bn); owner != nil {
				if sz, ok := owner.Delete(bn); ok {
					s.Pool.TotalUsed -= sz
					released += sz
				}
			}
		}
	}
	// CAT replicas, including re-created ones.
	for r := 0; r < s.Cfg.CATReplicas+1+8; r++ {
		rn := core.ReplicaName(core.CATName(name), r)
		if owner := s.Pool.OwnerOf(rn); owner != nil {
			if sz, ok := owner.Delete(rn); ok {
				s.Pool.TotalUsed -= sz
				released += sz
			}
		}
	}
	for r := 0; r <= fs.catReplicaSeq; r++ {
		rn := core.ReplicaName(core.CATName(name), 100+r)
		if owner := s.Pool.OwnerOf(rn); owner != nil {
			if sz, ok := owner.Delete(rn); ok {
				s.Pool.TotalUsed -= sz
				released += sz
			}
		}
	}
	delete(s.files, name)
	s.FilesStored--
	s.BytesStored -= fs.cat.FileSize()
	return released, nil
}

// Files returns the names of stored files (order unspecified).
func (s *Store) Files() []string {
	out := make([]string, 0, len(s.files))
	for n := range s.files {
		out = append(out, n)
	}
	return out
}

// NumFiles returns the number of currently indexed files.
func (s *Store) NumFiles() int { return len(s.files) }
