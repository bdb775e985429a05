package grid

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"peerstripe"
	"peerstripe/internal/trace"
)

// startRing starts an in-process ring of named storage nodes and waits
// until every node sees all of them. A node's name fixes its ring ID,
// so where a file's blocks land is the same on every run.
func startRing(t testing.TB, names ...string) []*peerstripe.Node {
	t.Helper()
	var nodes []*peerstripe.Node
	seed := ""
	for _, name := range names {
		n, err := peerstripe.ListenAndServe("127.0.0.1:0", 64<<20, seed, name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		if seed == "" {
			seed = n.Addr()
		}
		nodes = append(nodes, n)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		converged := true
		for _, n := range nodes {
			converged = converged && n.RingSize() == len(nodes)
		}
		if converged {
			return nodes
		}
		if time.Now().After(deadline) {
			t.Fatal("ring did not converge")
		}
	}
}

// dial connects a client to the ring through its first node.
func dial(t testing.TB, nodes []*peerstripe.Node, opts ...peerstripe.Option) *peerstripe.Client {
	t.Helper()
	c, err := peerstripe.Dial(context.Background(), nodes[0].Addr(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// newLib starts a four-node ring and returns an I/O library over a
// client dialed with opts, the client, and the nodes.
func newLib(t testing.TB, opts ...peerstripe.Option) (*IOLib, *peerstripe.Client, []*peerstripe.Node) {
	t.Helper()
	nodes := startRing(t, "n0", "n1", "n2", "n3")
	c := dial(t, nodes, opts...)
	return NewIOLib(c), c, nodes
}

// seedFile stores size random bytes under name and returns them.
func seedFile(t testing.TB, c *peerstripe.Client, name string, size int) []byte {
	t.Helper()
	data := make([]byte, size)
	rand.New(rand.NewSource(int64(size))).Read(data)
	if _, err := c.StoreBytes(context.Background(), name, data); err != nil {
		t.Fatal(err)
	}
	return data
}

// readStored reads a stored file whole through the client.
func readStored(t testing.TB, c *peerstripe.Client, name string) []byte {
	t.Helper()
	f, err := c.Open(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// writeFile creates name through lib and writes payload to it.
func writeFile(t testing.TB, lib *IOLib, name string, payload []byte) {
	t.Helper()
	fd, err := lib.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Write(fd, payload); err != nil {
		t.Fatal(err)
	}
	if err := lib.Close(fd); err != nil {
		t.Fatal(err)
	}
}

func TestIOLibOpenReadClose(t *testing.T) {
	lib, c, _ := newLib(t, peerstripe.WithCode("null"), peerstripe.WithChunkCap(16384))
	data := seedFile(t, c, "in.dat", 100000)

	fd, err := lib.Open("in.dat")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	buf := make([]byte, 7000)
	for len(got) < len(data) {
		n, err := lib.Read(fd, buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("sequential read mismatch")
	}
	if _, err := lib.Read(fd, buf); err == nil {
		t.Fatal("read past EOF succeeded")
	}
	if err := lib.Close(fd); err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Read(fd, buf); err == nil {
		t.Fatal("read on closed descriptor succeeded")
	}
}

// TestIOLibReadEOF checks that the end of file is io.EOF, as io.Reader
// and io.ReaderAt report it, so a copy loop can stop on it.
func TestIOLibReadEOF(t *testing.T) {
	lib, c, _ := newLib(t, peerstripe.WithCode("null"), peerstripe.WithChunkCap(4096))
	data := seedFile(t, c, "eof.dat", 10000)
	fd, err := lib.Open("eof.dat")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	total := 0
	for {
		n, err := lib.Read(fd, buf)
		total += n
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != len(data) {
		t.Fatalf("read %d bytes before EOF, want %d", total, len(data))
	}
	if n, err := lib.Read(fd, buf); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("Read at end = %d, %v; want 0, io.EOF", n, err)
	}
	if n, err := lib.ReadAt(fd, buf, int64(len(data)-100)); n != 100 || !errors.Is(err, io.EOF) {
		t.Fatalf("short ReadAt = %d, %v; want 100, io.EOF", n, err)
	}
	if !bytes.Equal(buf[:100], data[len(data)-100:]) {
		t.Fatal("short ReadAt mismatch")
	}
	if n, err := lib.ReadAt(fd, buf, int64(len(data))); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt at end = %d, %v; want 0, io.EOF", n, err)
	}
}

func TestIOLibReadAtAndSeek(t *testing.T) {
	lib, c, _ := newLib(t, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(9000))
	data := seedFile(t, c, "x.dat", 50000)
	fd, err := lib.Open("x.dat")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	if _, err := lib.ReadAt(fd, buf, 30000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[30000:30100]) {
		t.Fatal("ReadAt mismatch")
	}
	if err := lib.Seek(fd, 49990); err != nil {
		t.Fatal(err)
	}
	n, err := lib.Read(fd, buf)
	if err != nil || n != 10 {
		t.Fatalf("tail read n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf[:10], data[49990:]) {
		t.Fatal("tail read mismatch")
	}
	if _, err := lib.ReadAt(fd, buf, -5); err == nil {
		t.Fatal("negative offset accepted")
	}
}

// TestIOLibReadSeekConcurrent reads one descriptor while another
// goroutine seeks it. Every word of the file holds its own offset, so
// each Read must return a contiguous run that starts at an offset some
// Seek or an earlier Read left; under -race, an offset read outside
// the descriptor's lock is reported.
func TestIOLibReadSeekConcurrent(t *testing.T) {
	lib, c, _ := newLib(t, peerstripe.WithCode("null"), peerstripe.WithChunkCap(16384))
	const size = 64 << 10
	data := make([]byte, size)
	for off := 0; off < size; off += 4 {
		binary.LittleEndian.PutUint32(data[off:], uint32(off))
	}
	if _, err := c.StoreBytes(context.Background(), "seek.dat", data); err != nil {
		t.Fatal(err)
	}
	fd, err := lib.Open("seek.dat")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	start := make(chan struct{}) // both loops begin together, so they overlap
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 1000; i++ {
			if err := lib.Seek(fd, int64(i*4096%size)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		buf := make([]byte, 512)
		for i := 0; i < 1000; i++ {
			n, err := lib.Read(fd, buf)
			if errors.Is(err, io.EOF) {
				continue
			}
			if err != nil {
				t.Error(err)
				return
			}
			start := binary.LittleEndian.Uint32(buf)
			if !bytes.Equal(buf[:n], data[start:int(start)+n]) {
				t.Errorf("read %d at %d is not one contiguous range", n, start)
				return
			}
		}
	}()
	close(start)
	wg.Wait()
}

func TestIOLibWritePath(t *testing.T) {
	lib, c, _ := newLib(t, peerstripe.WithCode("null"), peerstripe.WithChunkCap(10000))

	fd, err := lib.Create("out.dat")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("peerstripe!"), 3000)
	if _, err := lib.Write(fd, payload[:15000]); err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Write(fd, payload[15000:]); err != nil {
		t.Fatal(err)
	}
	if err := lib.Close(fd); err != nil {
		t.Fatal(err)
	}
	// Read it back through a second descriptor.
	rfd, err := lib.Open("out.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := lib.ReadAt(rfd, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("write/readback mismatch")
	}
	info, err := c.Stat(context.Background(), "out.dat")
	if err != nil {
		t.Fatal(err)
	}
	if info.Chunks != 4 { // 33000 bytes at 10000/chunk
		t.Fatalf("chunks = %d, want 4", info.Chunks)
	}
}

func TestIOLibCache(t *testing.T) {
	lib, c, _ := newLib(t, peerstripe.WithCode("null"), peerstripe.WithChunkCap(1000))
	seedFile(t, c, "c.dat", 1000)
	fd1, _ := lib.Open("c.dat")
	lib.Close(fd1)
	fd2, _ := lib.Open("c.dat")
	lib.Close(fd2)
	hits, misses := lib.CacheStats()
	if misses != 1 || hits != 1 {
		t.Fatalf("cache hits=%d misses=%d, want 1/1", hits, misses)
	}
	lib.InvalidateCache("c.dat")
	fd3, _ := lib.Open("c.dat")
	lib.Close(fd3)
	if _, misses := lib.CacheStats(); misses != 2 {
		t.Fatal("invalidation did not force a fresh lookup")
	}
}

// TestIOLibChunkCache checks that reads go through the client's shared
// chunk cache: a scan decodes each chunk once, and later ReadAts inside
// a decoded chunk are hits that fetch nothing.
func TestIOLibChunkCache(t *testing.T) {
	lib, c, _ := newLib(t, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(16000))
	data := seedFile(t, c, "lru.dat", 64000) // 4 chunks
	fd, err := lib.Open("lru.dat")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1000)
	var got []byte
	for {
		n, err := lib.Read(fd, buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("scan mismatch")
	}
	scanned := c.CacheStats()
	if scanned.Decodes != 4 {
		t.Fatalf("a scan of 4 chunks decoded %d times", scanned.Decodes)
	}
	fetches := func() int64 { return c.Metrics().Latencies["ps_client_fetch_seconds"].Count }
	before := fetches()
	for i := 0; i < 10; i++ {
		off := 100 + i*700
		if _, err := lib.ReadAt(fd, buf, int64(off)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[off:off+1000]) {
			t.Fatalf("cached read %d mismatch", i)
		}
	}
	if n := fetches() - before; n != 0 {
		t.Fatalf("re-reads inside a decoded chunk fetched %d times", n)
	}
	st := c.CacheStats()
	if st.Hits != scanned.Hits+10 || st.Misses != scanned.Misses || st.Decodes != scanned.Decodes {
		t.Fatalf("re-reads: hits %d→%d misses %d→%d decodes %d→%d, want 10 more hits and nothing else",
			scanned.Hits, st.Hits, scanned.Misses, st.Misses, scanned.Decodes, st.Decodes)
	}
}

// TestIOLibChunkCacheEvicts bounds the client's cache: touching more
// chunks than it holds evicts the oldest, and a disabled cache never
// hits.
func TestIOLibChunkCacheEvicts(t *testing.T) {
	lib, c, nodes := newLib(t, peerstripe.WithCode("null"), peerstripe.WithChunkCap(4000),
		peerstripe.WithChunkCache(2*4000)) // room for two chunks
	seedFile(t, c, "ev.dat", 40000) // 10 chunks
	fd, _ := lib.Open("ev.dat")
	// Whole-chunk reads go through the cache; the third evicts chunk 0.
	buf := make([]byte, 4000)
	for _, off := range []int64{0, 4000, 8000, 0} {
		if _, err := lib.ReadAt(fd, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.CacheStats(); st.Hits != 0 || st.Misses != 4 || st.Evictions == 0 {
		t.Fatalf("hits=%d misses=%d evictions=%d, want 0/4 and evictions", st.Hits, st.Misses, st.Evictions)
	}

	uncached := dial(t, nodes, peerstripe.WithCode("null"), peerstripe.WithChunkCache(0))
	off := NewIOLib(uncached)
	fd2, _ := off.Open("ev.dat")
	for i := 0; i < 3; i++ {
		if _, err := off.ReadAt(fd2, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st := uncached.CacheStats(); st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("disabled cache: hits=%d misses=%d, want 0/3", st.Hits, st.Misses)
	}
}

// TestIOLibWriteInvalidatesChunkCache overwrites a file through the
// write path and checks readers see the new contents.
func TestIOLibWriteInvalidatesChunkCache(t *testing.T) {
	lib, _, _ := newLib(t, peerstripe.WithCode("null"), peerstripe.WithChunkCap(1000))

	v1 := bytes.Repeat([]byte{1}, 2000)
	writeFile(t, lib, "rw.dat", v1)
	fd, _ := lib.Open("rw.dat")
	buf := make([]byte, 2000)
	if _, err := lib.ReadAt(fd, buf, 0); err != nil {
		t.Fatal(err)
	}
	v2 := bytes.Repeat([]byte{2}, 2000)
	writeFile(t, lib, "rw.dat", v2)
	fd2, _ := lib.Open("rw.dat")
	if _, err := lib.ReadAt(fd2, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, v2) {
		t.Fatal("read after rewrite served stale cached chunk")
	}
}

// TestIOLibChunkCacheStaleDescriptor is the regression test for cache
// poisoning: a reader holding a CAT from before a rewrite must not
// leave a wrong-length chunk in the cache for fresh readers to slice.
func TestIOLibChunkCacheStaleDescriptor(t *testing.T) {
	lib, _, _ := newLib(t, peerstripe.WithCode("null"), peerstripe.WithChunkCap(1000))

	writeFile(t, lib, "stale.dat", bytes.Repeat([]byte{1}, 500)) // v1: chunk 0 is 500 bytes
	staleFD, err := lib.Open("stale.dat")
	if err != nil {
		t.Fatal(err)
	}
	v2 := bytes.Repeat([]byte{2}, 1000) // v2: chunk 0 is 1000 bytes
	writeFile(t, lib, "stale.dat", v2)
	// The stale descriptor reads through its v1 CAT, decoding a
	// 500-byte chunk 0 from v2's blocks.
	buf := make([]byte, 500)
	if _, err := lib.ReadAt(staleFD, buf, 0); err != nil {
		t.Logf("stale read errored (acceptable): %v", err)
	}
	// A fresh reader must get all 1000 v2 bytes — not panic on a short
	// cached chunk, not see v1 data.
	freshFD, err := lib.Open("stale.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1000)
	if _, err := lib.ReadAt(freshFD, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("fresh reader served poisoned cache entry")
	}
}

func TestIOLibMissingFile(t *testing.T) {
	lib, _, _ := newLib(t)
	if _, err := lib.Open("ghost"); !errors.Is(err, peerstripe.ErrNotFound) {
		t.Fatalf("open of missing file: %v, want ErrNotFound", err)
	}
}

// TestIOLibToleratesDroppedBlockWithCoding closes the node holding data
// block 0 of a one-chunk xor file. The node names are chosen so that
// the chunk's three blocks land on three different nodes and the
// closed one holds no CAT copy: the read must rebuild from the other
// two.
func TestIOLibToleratesDroppedBlockWithCoding(t *testing.T) {
	nodes := startRing(t, "n12", "n13", "n14", "n15")
	c := dial(t, nodes, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(30000))
	data := seedFile(t, c, "f.dat", 30000) // one chunk
	victim := nodes[0]
	if n := victim.Blocks(); n != 1 {
		t.Fatalf("victim holds %d blocks, want exactly one of the chunk's", n)
	}
	victim.Close()
	lib := NewIOLib(c)
	fd, err := lib.Open("f.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := lib.ReadAt(fd, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decode with dropped block mismatch")
	}
}

func TestSchedulerRunsJobs(t *testing.T) {
	lib, c, _ := newLib(t, peerstripe.WithCode("null"), peerstripe.WithChunkCap(8192))
	data := seedFile(t, c, "src.dat", 50000)
	sched := NewScheduler(lib, 4)
	for i := 0; i < 6; i++ {
		sched.Submit(BigCopyJob("src.dat", fmt.Sprintf("dst%d.dat", i), 4096))
	}
	if sched.Queued() != 6 {
		t.Fatalf("queued = %d", sched.Queued())
	}
	results := sched.Drain()
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s failed: %v", r.Job, r.Err)
		}
	}
	for i := 0; i < 6; i++ {
		if got := readStored(t, c, fmt.Sprintf("dst%d.dat", i)); !bytes.Equal(got, data) {
			t.Fatalf("dst%d.dat is not a copy of src.dat", i)
		}
	}
}

func TestSchedulerRecoversPanics(t *testing.T) {
	sched := NewScheduler(nil, 2)
	sched.Submit(Job{Name: "boom", Run: func(*IOLib) error { panic("kaboom") }})
	results := sched.Drain()
	if len(results) != 1 || results[0].Err == nil {
		t.Fatal("panic not converted to error")
	}
}

func TestTimeModelCalibration(t *testing.T) {
	// The model must land within a few percent of Table 4's published
	// cells (the calibration targets; see EXPERIMENTS.md).
	m := DefaultTimeModel()
	within := func(got, want, tolPct float64) bool {
		return got > want*(1-tolPct/100) && got < want*(1+tolPct/100)
	}
	if got := m.TimeWhole(1 * trace.GB); !within(got, 151.0, 2) {
		t.Errorf("1 GB whole = %.1f, paper 151.0", got)
	}
	if got := m.TimeWhole(8 * trace.GB); !within(got, 1051.2, 3) {
		t.Errorf("8 GB whole = %.1f, paper 1051.2", got)
	}
	if got := m.TimeFixed(1*trace.GB, 256); !within(got, 169.0, 5) {
		t.Errorf("1 GB fixed = %.1f, paper 169.0", got)
	}
	if got := m.TimeVarying(1*trace.GB, 1); !within(got, 176.4, 3) {
		t.Errorf("1 GB varying = %.1f, paper 176.4", got)
	}
	if got := m.TimeVarying(8*trace.GB, 2); !within(got, 1076.6, 3) {
		t.Errorf("8 GB varying = %.1f, paper 1076.6", got)
	}
	// 128 GB fixed-chunk lookup overhead ≈ paper's 4456 s over base.
	ovh := m.TimeFixed(128*trace.GB, 32768) - m.TimeWhole(128*trace.GB)
	if ovh < 4000 || ovh > 5000 {
		t.Errorf("128 GB fixed lookup overhead = %.0f, paper ≈4456", ovh)
	}
}

func TestTimeModelMonotonicity(t *testing.T) {
	m := DefaultTimeModel()
	if m.TimeFixed(1*trace.GB, 512) <= m.TimeFixed(1*trace.GB, 256) {
		t.Error("fixed cost not increasing in chunks")
	}
	if m.TimeVarying(1*trace.GB, 4) <= m.TimeWhole(1*trace.GB) {
		t.Error("varying pays no overhead")
	}
	// The Table 4 crossover: varying is slower than fixed at 1 GB but
	// faster at 8 GB.
	if m.TimeVarying(1*trace.GB, 1) <= m.TimeFixed(1*trace.GB, 256) {
		t.Error("1 GB: varying should be slower than fixed (paper crossover)")
	}
	if m.TimeVarying(8*trace.GB, 2) >= m.TimeFixed(8*trace.GB, 2048) {
		t.Error("8 GB: varying should be faster than fixed")
	}
}

func TestRunBigCopySchemes(t *testing.T) {
	c := NewCluster(1, 32)
	// 1 GB: all three succeed.
	for _, sch := range []Scheme{WholeFile, FixedChunks, VaryingChunks} {
		r := c.RunBigCopy(sch, 1*trace.GB)
		if !r.OK {
			t.Fatalf("%v failed for 1 GB", sch)
		}
		if r.Seconds <= 0 {
			t.Fatalf("%v reported nonpositive time", sch)
		}
	}
	// 16 GB: whole-file cannot fit on any single 2–15 GB machine.
	if r := c.RunBigCopy(WholeFile, 16*trace.GB); r.OK {
		t.Fatal("whole-file stored 16 GB on a <=15 GB machine")
	}
	if r := c.RunBigCopy(VaryingChunks, 16*trace.GB); !r.OK {
		t.Fatal("varying-chunks failed for 16 GB")
	}
	// Chunk counts: fixed-chunk count is size/4MB; varying is tiny.
	rf := c.RunBigCopy(FixedChunks, 1*trace.GB)
	rv := c.RunBigCopy(VaryingChunks, 1*trace.GB)
	if rf.Chunks != 256 {
		t.Fatalf("fixed chunks = %d, want 256", rf.Chunks)
	}
	if rv.Chunks >= rf.Chunks/10 {
		t.Fatalf("varying chunks = %d, not far below fixed %d", rv.Chunks, rf.Chunks)
	}
}

func TestRunTable4Shape(t *testing.T) {
	c := NewCluster(2, 32)
	sizes := []int64{1 * trace.GB, 8 * trace.GB, 32 * trace.GB}
	rows := c.RunTable4(sizes)
	if len(rows) != 3 {
		t.Fatal("row count wrong")
	}
	// At 8 GB, varying overhead must undercut fixed (Table 4's trend).
	r8 := rows[1]
	if !r8.Whole.OK || !r8.Fixed.OK || !r8.Varying.OK {
		t.Fatalf("8 GB row has failures: %+v", r8)
	}
	if r8.OverheadPct(r8.Varying) >= r8.OverheadPct(r8.Fixed) {
		t.Fatalf("varying overhead %.1f%% >= fixed %.1f%% at 8 GB",
			r8.OverheadPct(r8.Varying), r8.OverheadPct(r8.Fixed))
	}
	// At 32 GB whole-file is N/A, chunked schemes still work.
	r32 := rows[2]
	if r32.Whole.OK {
		t.Fatal("whole-file succeeded at 32 GB")
	}
	if !r32.Fixed.OK || !r32.Varying.OK {
		t.Fatal("chunked schemes failed at 32 GB")
	}
	if r32.OverheadPct(r32.Fixed) != -1 {
		t.Fatal("overhead should be N/A when whole-file failed")
	}
	// Varying-chunks remains faster than fixed at 32 GB.
	if r32.Varying.Seconds >= r32.Fixed.Seconds {
		t.Fatal("varying not faster than fixed at 32 GB")
	}
}

func TestBigCopyJobMissingSource(t *testing.T) {
	lib, _, _ := newLib(t)
	sched := NewScheduler(lib, 1)
	sched.Submit(BigCopyJob("missing.bin", "out.bin", 1024))
	results := sched.Drain()
	if len(results) != 1 || results[0].Err == nil {
		t.Fatal("copy of missing source did not error")
	}
}

// TestBigCopyJobFailureDropsDescriptors runs a copy whose source fails
// mid-job: its location is cached, then every node goes away. The job
// must fail and leave no descriptor open, its output's included.
func TestBigCopyJobFailureDropsDescriptors(t *testing.T) {
	lib, c, nodes := newLib(t)
	seedFile(t, c, "src.bin", 100<<10)
	fd, err := lib.Open("src.bin")
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.Close(fd); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		n.Close()
	}
	sched := NewScheduler(lib, 1)
	sched.Submit(BigCopyJob("src.bin", "dst.bin", 4<<10))
	results := sched.Drain()
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("copy from a dead ring returned %+v, want an error", results)
	}
	if hits, _ := lib.CacheStats(); hits != 1 {
		t.Fatalf("the job's Open had %d cache hits, want 1: the source's location was not cached", hits)
	}
	lib.mu.Lock()
	open := len(lib.fds)
	lib.mu.Unlock()
	if open != 0 {
		t.Fatalf("failed copy left %d descriptors open", open)
	}
}

func TestIOLibDiscard(t *testing.T) {
	lib, c, _ := newLib(t)
	seedFile(t, c, "ro.dat", 100)
	wfd, _ := lib.Create("gone.dat")
	if _, err := lib.Write(wfd, []byte("never stored")); err != nil {
		t.Fatal(err)
	}
	if err := lib.Discard(wfd); err != nil {
		t.Fatal(err)
	}
	if err := lib.Close(wfd); err == nil {
		t.Fatal("close after discard accepted")
	}
	if _, err := lib.Open("gone.dat"); err == nil {
		t.Fatal("a discarded descriptor's file was stored")
	}
	rfd, err := lib.Open("ro.dat")
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.Discard(rfd); err == nil {
		t.Fatal("discard of a read descriptor accepted")
	}
}

func TestSchedulerDrainEmpty(t *testing.T) {
	sched := NewScheduler(nil, 2)
	if got := sched.Drain(); len(got) != 0 {
		t.Fatalf("empty drain returned %d results", len(got))
	}
}

func TestIOLibWriteOnReadFD(t *testing.T) {
	lib, c, _ := newLib(t)
	seedFile(t, c, "ro.dat", 100)
	fd, err := lib.Open("ro.dat")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Write(fd, []byte("x")); err == nil {
		t.Fatal("write on read descriptor accepted")
	}
	wfd, _ := lib.Create("w.dat")
	if _, err := lib.Read(wfd, make([]byte, 4)); err == nil {
		t.Fatal("read on write descriptor accepted")
	}
}

func TestIOLibDoubleClose(t *testing.T) {
	lib, c, _ := newLib(t)
	seedFile(t, c, "dc.dat", 100)
	fd, _ := lib.Open("dc.dat")
	if err := lib.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := lib.Close(fd); err == nil {
		t.Fatal("double close accepted")
	}
}

func TestIOLibSeekErrors(t *testing.T) {
	lib, c, _ := newLib(t)
	seedFile(t, c, "sk.dat", 100)
	if err := lib.Seek(99, 0); err == nil {
		t.Fatal("seek on bad fd accepted")
	}
	fd, _ := lib.Open("sk.dat")
	if err := lib.Seek(fd, -1); err == nil {
		t.Fatal("negative seek accepted")
	}
}

func TestClusterWholeFileUsesLargestMachine(t *testing.T) {
	c := NewCluster(11, 32)
	var largest int64
	for _, cap := range c.Caps {
		if cap > largest {
			largest = cap
		}
	}
	// Just below the largest machine: succeeds.
	if r := c.RunBigCopy(WholeFile, largest-1); !r.OK {
		t.Fatal("whole-file failed below largest machine capacity")
	}
	// Just above: fails.
	if r := c.RunBigCopy(WholeFile, largest+1); r.OK {
		t.Fatal("whole-file succeeded above largest machine capacity")
	}
}

func TestIOLibConcurrentReaders(t *testing.T) {
	lib, c, _ := newLib(t, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(16384))
	data := seedFile(t, c, "conc.dat", 200000)

	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < 20; i++ {
				fd, err := lib.Open("conc.dat")
				if err != nil {
					errs <- err
					return
				}
				off := int64((w*17 + i*7919) % 190000)
				buf := make([]byte, 512)
				if _, err := lib.ReadAt(fd, buf, off); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, data[off:off+512]) {
					errs <- fmt.Errorf("worker %d: data mismatch at %d", w, off)
					return
				}
				if err := lib.Close(fd); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSchemeString(t *testing.T) {
	if WholeFile.String() == "" || FixedChunks.String() == "" || VaryingChunks.String() == "" {
		t.Fatal("empty scheme name")
	}
	if Scheme(99).String() == "" {
		t.Fatal("unknown scheme not named")
	}
}
