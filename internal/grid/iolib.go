// Package grid is the desktop-grid substrate of the §5 implementation
// and the §6.4 Condor case study: an interposed I/O library that
// redirects application Open/Read/Write/Close calls into PeerStripe
// storage through a lookup module with a location cache, a minimal
// cycle-sharing job scheduler standing in for Condor, and the bigCopy
// benchmark with its calibrated transfer-time model.
//
// Substitution note (see DESIGN.md): the paper interposes on libc via
// LD_PRELOAD from 259 lines of C; Go programs cannot override libc
// symbols, so applications call this library's identical Open/Read/
// Write/Close surface directly. The measured machinery — lookup module,
// chunk location cache, redirection — is the same.
package grid

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"sync"

	"peerstripe/internal/core"
)

// FS is the storage backend the I/O library redirects to. The in-memory
// MemFS backs tests and examples; internal/node's live client backs a
// real TCP ring.
type FS interface {
	// LoadCAT fetches a stored file's chunk allocation table.
	LoadCAT(file string) (*core.CAT, error)
	// FetchBlock fetches one named encoded block.
	FetchBlock(name string) ([]byte, error)
	// StoreBlocks stores a file's encoded blocks and CAT.
	StoreBlocks(cat *core.CAT, blocks []core.NamedBlock) error
}

// IOLib redirects file I/O into the shared storage pool (§5, Figure 6).
// It maintains POSIX-like descriptor state and the lookup module's
// cache of chunk locations; cache hits skip the p2p lookup. A small LRU
// of decoded chunks sits under the read path so repeated reads within a
// chunk skip the fetch-and-decode entirely.
type IOLib struct {
	fs    FS
	codec *core.Codec
	// PlanChunk sizes writes at Close time; nil uses a 64 MB default.
	PlanChunk func(fileSize int64) []int64
	// ChunkCacheSize is the decoded-chunk LRU capacity in chunks. 0
	// selects the default (8); negative disables the cache. Set before
	// the first read.
	ChunkCacheSize int
	// ChunkCacheBytes bounds the LRU's total decoded bytes. 0 selects
	// the default (64 MB); chunks larger than the budget are served
	// but never cached. Set before the first read.
	ChunkCacheBytes int64

	mu      sync.Mutex
	nextFD  int
	fds     map[int]*fdState
	cache   map[string]*core.CAT // file -> CAT (the location cache)
	catHits int
	catMiss int

	chunkMu    sync.Mutex
	chunkLRU   map[chunkKey]*list.Element
	chunkOrder *list.List // front = most recently used *chunkEntry
	chunkBytes int64      // decoded bytes currently cached
	chunkHits  int
	chunkMiss  int
}

// chunkKey identifies one decoded chunk in the LRU.
type chunkKey struct {
	file string
	ci   int
}

type chunkEntry struct {
	key  chunkKey
	data []byte
}

// Decoded-chunk LRU defaults when the knobs are left zero.
const (
	defaultChunkCache      = 8
	defaultChunkCacheBytes = 64 << 20
)

type fdState struct {
	name    string
	offset  int64
	cat     *core.CAT // nil for write-mode descriptors
	writing bool
	buf     []byte
}

// NewIOLib builds an interposition library over the backend using the
// given per-chunk erasure code.
// The library reads through a copy of codec whose Fetch is the
// backend's FetchBlock.
func NewIOLib(fs FS, codec *core.Codec) *IOLib {
	l := &IOLib{
		fs:         fs,
		fds:        make(map[int]*fdState),
		cache:      make(map[string]*core.CAT),
		chunkLRU:   make(map[chunkKey]*list.Element),
		chunkOrder: list.New(),
	}
	cd := *codec
	cd.Fetch = core.FetchBlocks(l.fetch)
	l.codec = &cd
	return l
}

// CacheStats reports lookup-cache hits and misses.
func (l *IOLib) CacheStats() (hits, misses int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.catHits, l.catMiss
}

// ChunkCacheStats reports decoded-chunk cache hits and misses.
func (l *IOLib) ChunkCacheStats() (hits, misses int) {
	l.chunkMu.Lock()
	defer l.chunkMu.Unlock()
	return l.chunkHits, l.chunkMiss
}

// InvalidateCache drops cached locations and decoded chunks
// (stale-cache handling: the lookup module falls back to the overlay on
// the next access, §5).
func (l *IOLib) InvalidateCache(file string) {
	l.mu.Lock()
	delete(l.cache, file)
	l.mu.Unlock()
	l.dropChunks(file)
}

// dropChunks evicts every decoded chunk of the file from the LRU.
func (l *IOLib) dropChunks(file string) {
	l.chunkMu.Lock()
	defer l.chunkMu.Unlock()
	for key, el := range l.chunkLRU {
		if key.file == file {
			l.removeChunkLocked(el)
		}
	}
}

// removeChunkLocked evicts one entry; chunkMu must be held.
func (l *IOLib) removeChunkLocked(el *list.Element) {
	e := el.Value.(*chunkEntry)
	l.chunkOrder.Remove(el)
	delete(l.chunkLRU, e.key)
	l.chunkBytes -= int64(len(e.data))
}

// chunkCap resolves the LRU capacity limits.
func (l *IOLib) chunkCap() (entries int, bytes int64) {
	entries = l.ChunkCacheSize
	if entries == 0 {
		entries = defaultChunkCache
	}
	bytes = l.ChunkCacheBytes
	if bytes == 0 {
		bytes = defaultChunkCacheBytes
	}
	return entries, bytes
}

// chunkData returns chunk ci of the file, from the LRU when possible.
// The returned slice is shared cache state: callers copy out of it and
// never mutate it.
func (l *IOLib) chunkData(cat *core.CAT, ci int) ([]byte, error) {
	want := cat.Row(ci).Len()
	decode := func() ([]byte, error) {
		data := make([]byte, want)
		return data, l.codec.ReadChunk(context.Background(), cat, ci, 0, data)
	}
	maxEntries, maxBytes := l.chunkCap()
	if maxEntries < 1 {
		return decode()
	}
	key := chunkKey{file: cat.File, ci: ci}
	l.chunkMu.Lock()
	if el, ok := l.chunkLRU[key]; ok {
		// A hit must match this CAT's chunk extent; a reader holding a
		// stale CAT (descriptor opened before a rewrite) may have
		// populated the entry at a different length.
		if data := el.Value.(*chunkEntry).data; int64(len(data)) == want {
			l.chunkOrder.MoveToFront(el)
			l.chunkHits++
			l.chunkMu.Unlock()
			return data, nil
		}
		l.removeChunkLocked(el)
	}
	l.chunkMiss++
	l.chunkMu.Unlock()
	data, err := decode()
	if err != nil {
		return nil, err
	}
	l.chunkMu.Lock()
	if _, ok := l.chunkLRU[key]; !ok && int64(len(data)) <= maxBytes {
		l.chunkLRU[key] = l.chunkOrder.PushFront(&chunkEntry{key: key, data: data})
		l.chunkBytes += int64(len(data))
		for l.chunkOrder.Len() > maxEntries || l.chunkBytes > maxBytes {
			l.removeChunkLocked(l.chunkOrder.Back())
		}
	}
	l.chunkMu.Unlock()
	return data, nil
}

// readRange assembles [off, off+length) from cached or freshly decoded
// chunks.
func (l *IOLib) readRange(cat *core.CAT, off, length int64) ([]byte, error) {
	if off < 0 || length < 0 || off+length > cat.FileSize() {
		return nil, fmt.Errorf("grid: range [%d,%d) outside file of %d bytes", off, off+length, cat.FileSize())
	}
	out := make([]byte, 0, length)
	for _, ci := range cat.ChunksFor(off, length) {
		row := cat.Rows[ci]
		chunk, err := l.chunkData(cat, ci)
		if err != nil {
			return nil, err
		}
		out = append(out, chunk[max(off, row.Start)-row.Start:min(off+length, row.End)-row.Start]...)
	}
	return out, nil
}

// Open opens a stored file for reading and returns a descriptor.
func (l *IOLib) Open(name string) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cat, ok := l.cache[name]
	if ok {
		l.catHits++
	} else {
		l.catMiss++
		var err error
		cat, err = l.fs.LoadCAT(name)
		if err != nil {
			return -1, fmt.Errorf("grid: open %q: %w", name, err)
		}
		l.cache[name] = cat
	}
	fd := l.allocFD()
	l.fds[fd] = &fdState{name: name, cat: cat}
	return fd, nil
}

// Create opens a new file for writing.
func (l *IOLib) Create(name string) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fd := l.allocFD()
	l.fds[fd] = &fdState{name: name, writing: true}
	return fd, nil
}

func (l *IOLib) allocFD() int {
	l.nextFD++
	return l.nextFD + 2 // leave 0,1,2 for stdio, as a libc shim would
}

// Read reads up to len(p) bytes at the descriptor's offset, fetching
// only the chunks the range touches.
func (l *IOLib) Read(fd int, p []byte) (int, error) {
	l.mu.Lock()
	st, ok := l.fds[fd]
	l.mu.Unlock()
	if !ok || st.writing {
		return 0, fmt.Errorf("grid: read: bad descriptor %d", fd)
	}
	if st.offset >= st.cat.FileSize() {
		return 0, fmt.Errorf("grid: read %q: EOF", st.name)
	}
	n := int64(len(p))
	if rem := st.cat.FileSize() - st.offset; n > rem {
		n = rem
	}
	data, err := l.readRange(st.cat, st.offset, n)
	if err != nil {
		return 0, err
	}
	copy(p, data)
	st.offset += int64(len(data))
	return len(data), nil
}

// ReadAt reads from an explicit offset without moving the descriptor.
func (l *IOLib) ReadAt(fd int, p []byte, off int64) (int, error) {
	l.mu.Lock()
	st, ok := l.fds[fd]
	l.mu.Unlock()
	if !ok || st.writing {
		return 0, fmt.Errorf("grid: readat: bad descriptor %d", fd)
	}
	if off < 0 || off >= st.cat.FileSize() {
		return 0, fmt.Errorf("grid: readat %q: offset %d out of range", st.name, off)
	}
	n := int64(len(p))
	if rem := st.cat.FileSize() - off; n > rem {
		n = rem
	}
	data, err := l.readRange(st.cat, off, n)
	if err != nil {
		return 0, err
	}
	copy(p, data)
	return len(data), nil
}

// Seek positions the descriptor (whence: 0 = absolute only, matching
// what bigCopy needs).
func (l *IOLib) Seek(fd int, off int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.fds[fd]
	if !ok {
		return fmt.Errorf("grid: seek: bad descriptor %d", fd)
	}
	if off < 0 {
		return fmt.Errorf("grid: seek: negative offset")
	}
	st.offset = off
	return nil
}

// Write appends to a write-mode descriptor. Data is buffered and
// striped into the pool at Close (the local instance batches I/O
// before the store, §5).
func (l *IOLib) Write(fd int, p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.fds[fd]
	if !ok || !st.writing {
		return 0, fmt.Errorf("grid: write: bad descriptor %d", fd)
	}
	st.buf = append(st.buf, p...)
	return len(p), nil
}

// Close releases the descriptor; for write-mode descriptors it encodes
// and stores the buffered file.
func (l *IOLib) Close(fd int) error {
	l.mu.Lock()
	st, ok := l.fds[fd]
	if ok {
		delete(l.fds, fd)
	}
	l.mu.Unlock()
	if !ok {
		return fmt.Errorf("grid: close: bad descriptor %d", fd)
	}
	if !st.writing {
		return nil
	}
	plan := l.PlanChunk
	if plan == nil {
		plan = func(sz int64) []int64 { return core.PlanChunkSizes(sz, 64<<20) }
	}
	blocks, cat, err := l.codec.EncodeFile(context.Background(), st.name, st.buf, plan(int64(len(st.buf))))
	if err != nil {
		return fmt.Errorf("grid: close %q: %w", st.name, err)
	}
	if err := l.fs.StoreBlocks(cat, blocks); err != nil {
		return fmt.Errorf("grid: close %q: %w", st.name, err)
	}
	l.mu.Lock()
	l.cache[st.name] = cat
	l.mu.Unlock()
	l.dropChunks(st.name) // the file's contents changed
	return nil
}

// fetch adapts FS.FetchBlock to the codec's FetchFunc.
func (l *IOLib) fetch(name string) ([]byte, bool) {
	d, err := l.fs.FetchBlock(name)
	if err != nil {
		return nil, false
	}
	return d, true
}

// MemFS is an in-memory FS for tests, examples, and single-process
// demos.
type MemFS struct {
	mu     sync.Mutex
	cats   map[string]*core.CAT
	blocks map[string][]byte
	// FetchCount tracks per-block fetch totals for cache assertions.
	FetchCount map[string]int
}

// NewMemFS returns an empty in-memory backend.
func NewMemFS() *MemFS {
	return &MemFS{
		cats:       make(map[string]*core.CAT),
		blocks:     make(map[string][]byte),
		FetchCount: make(map[string]int),
	}
}

// LoadCAT implements FS.
func (m *MemFS) LoadCAT(file string) (*core.CAT, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.cats[file]
	if !ok {
		return nil, fmt.Errorf("memfs: no CAT for %q", file)
	}
	return c, nil
}

// FetchBlock implements FS.
func (m *MemFS) FetchBlock(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.blocks[name]
	if !ok {
		return nil, fmt.Errorf("memfs: no block %q", name)
	}
	m.FetchCount[name]++
	return d, nil
}

// StoreBlocks implements FS.
func (m *MemFS) StoreBlocks(cat *core.CAT, blocks []core.NamedBlock) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cats[cat.File] = cat
	for _, b := range blocks {
		m.blocks[b.Name] = b.Data
	}
	return nil
}

// DropBlock removes a block (failure injection for tests).
func (m *MemFS) DropBlock(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.blocks, name)
}

// Files lists stored file names, sorted.
func (m *MemFS) Files() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.cats))
	for f := range m.cats {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
