// Package grid is the desktop-grid substrate of the §5 implementation
// and the §6.4 Condor case study: an interposed I/O library that
// redirects application Open/Read/Write/Close calls into PeerStripe
// storage through a lookup module with a location cache, a minimal
// cycle-sharing job scheduler standing in for Condor, and the bigCopy
// benchmark with its calibrated transfer-time model.
//
// The I/O library runs on the real store: it is a descriptor table over
// a peerstripe.Client, so application I/O lands on a live ring, and
// tests run it over an in-process one.
//
// Substitution note (see DESIGN.md): the paper interposes on libc via
// LD_PRELOAD from 259 lines of C; Go programs cannot override libc
// symbols, so applications call this library's identical Open/Read/
// Write/Close surface directly. The measured machinery — lookup module,
// chunk location cache, redirection — is the same.
package grid

import (
	"context"
	"fmt"
	"io"
	"sync"

	"peerstripe"
)

// IOLib redirects file I/O into the shared storage pool (§5, Figure 6).
// It keeps POSIX-like descriptors over one client. The lookup module's
// location cache is each name's opened *peerstripe.File, which holds
// the file's chunk allocation table: a hit skips the CAT fetch.
// Descriptors read through that File at their own offsets, so decoded
// chunks come from the client's shared cache (see
// peerstripe.WithChunkCache), keyed by the CAT's hash.
type IOLib struct {
	c *peerstripe.Client

	mu      sync.Mutex
	nextFD  int
	fds     map[int]*fdState
	files   map[string]*peerstripe.File // the location cache
	catHits int
	catMiss int
}

// fdState is one descriptor. name and file never change; mu guards the
// rest and is held for a whole Read, Write or Seek, so concurrent calls
// on one descriptor see one offset and consume distinct ranges.
type fdState struct {
	name string
	file *peerstripe.File // nil for write-mode descriptors

	mu     sync.Mutex
	offset int64
	buf    []byte
}

// NewIOLib builds an interposition library over the client; reads and
// writes use its code, chunk cap and chunk cache.
func NewIOLib(c *peerstripe.Client) *IOLib {
	return &IOLib{
		c:     c,
		fds:   make(map[int]*fdState),
		files: make(map[string]*peerstripe.File),
	}
}

// CacheStats reports lookup-cache hits and misses.
func (l *IOLib) CacheStats() (hits, misses int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.catHits, l.catMiss
}

// InvalidateCache drops the file's cached location (stale-cache
// handling: the lookup module falls back to the overlay on the next
// Open, §5). Descriptors already open keep reading the layout they
// opened.
func (l *IOLib) InvalidateCache(file string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.files, file)
}

// Open opens a stored file for reading and returns a descriptor.
func (l *IOLib) Open(name string) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.files[name]
	if ok {
		l.catHits++
	} else {
		l.catMiss++
		var err error
		f, err = l.c.Open(context.Background(), name)
		if err != nil {
			return -1, fmt.Errorf("grid: open %q: %w", name, err)
		}
		l.files[name] = f
	}
	return l.allocFD(&fdState{name: name, file: f}), nil
}

// Create opens a new file for writing.
func (l *IOLib) Create(name string) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.allocFD(&fdState{name: name}), nil
}

// allocFD enters st in the table; l.mu must be held.
func (l *IOLib) allocFD(st *fdState) int {
	l.nextFD++
	fd := l.nextFD + 2 // leave 0,1,2 for stdio, as a libc shim would
	l.fds[fd] = st
	return fd
}

// descriptor returns fd's state if it is open in the wanted mode.
func (l *IOLib) descriptor(op string, fd int, writing bool) (*fdState, error) {
	l.mu.Lock()
	st, ok := l.fds[fd]
	l.mu.Unlock()
	if !ok || (st.file == nil) != writing {
		return nil, fmt.Errorf("grid: %s: bad descriptor %d", op, fd)
	}
	return st, nil
}

// Read reads up to len(p) bytes at the descriptor's offset, fetching
// only the chunks the range touches, and advances the offset. At end
// of file it returns 0, io.EOF.
func (l *IOLib) Read(fd int, p []byte) (int, error) {
	st, err := l.descriptor("read", fd, false)
	if err != nil {
		return 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	n, err := st.file.ReadAt(p, st.offset)
	st.offset += int64(n)
	if err == io.EOF && n > 0 {
		err = nil // the next Read reports the end
	}
	return n, err
}

// ReadAt reads from an explicit offset without moving the descriptor.
// Like io.ReaderAt it returns io.EOF when fewer than len(p) bytes
// remain from off.
func (l *IOLib) ReadAt(fd int, p []byte, off int64) (int, error) {
	st, err := l.descriptor("readat", fd, false)
	if err != nil {
		return 0, err
	}
	return st.file.ReadAt(p, off)
}

// Seek positions the descriptor (whence: 0 = absolute only, matching
// what bigCopy needs).
func (l *IOLib) Seek(fd int, off int64) error {
	l.mu.Lock()
	st, ok := l.fds[fd]
	l.mu.Unlock()
	if !ok {
		return fmt.Errorf("grid: seek: bad descriptor %d", fd)
	}
	if off < 0 {
		return fmt.Errorf("grid: seek: negative offset")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.offset = off
	return nil
}

// Write appends to a write-mode descriptor. Data is buffered and
// striped into the pool at Close (the local instance batches I/O
// before the store, §5).
func (l *IOLib) Write(fd int, p []byte) (int, error) {
	st, err := l.descriptor("write", fd, true)
	if err != nil {
		return 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.buf = append(st.buf, p...)
	return len(p), nil
}

// Close releases the descriptor; for write-mode descriptors it stores
// the buffered file and drops the name's cached location, so the next
// Open reads the new layout.
func (l *IOLib) Close(fd int) error {
	l.mu.Lock()
	st, ok := l.fds[fd]
	delete(l.fds, fd)
	l.mu.Unlock()
	if !ok {
		return fmt.Errorf("grid: close: bad descriptor %d", fd)
	}
	if st.file != nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := l.c.StoreBytes(context.Background(), st.name, st.buf); err != nil {
		return fmt.Errorf("grid: close %q: %w", st.name, err)
	}
	l.InvalidateCache(st.name)
	return nil
}

// Discard releases a write-mode descriptor without storing what was
// written to it: a job that fails mid-write lets its output go.
func (l *IOLib) Discard(fd int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st, ok := l.fds[fd]; !ok || st.file != nil {
		return fmt.Errorf("grid: discard: bad descriptor %d", fd)
	}
	delete(l.fds, fd)
	return nil
}
