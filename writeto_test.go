package peerstripe_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"testing"

	"peerstripe"
)

// failAfter takes up to limit bytes, then fails; short instead takes
// them and returns no error, a writer that breaks io.Writer's contract.
type failAfter struct {
	limit int
	short bool
	got   bytes.Buffer
}

var errSink = errors.New("sink failed")

func (w *failAfter) Write(p []byte) (int, error) {
	room := w.limit - w.got.Len()
	if len(p) <= room {
		return w.got.Write(p)
	}
	w.got.Write(p[:room])
	if w.short {
		return room, nil
	}
	return room, errSink
}

// writerFunc adapts a function to io.Writer.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// position reports f's seek position.
func position(t *testing.T, f *peerstripe.File) int64 {
	t.Helper()
	pos, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		t.Fatal(err)
	}
	return pos
}

// TestLiveFileWriteTo pins File.WriteTo, the path io.Copy takes, over a
// live ring: byte-exact streams under xor, rs and online from the start
// and from mid-chunk, EOF and Close, a failing and a short writer, a
// context cancelled mid-stream, and the cache rule — a stream of more
// than half the cache reads a cached chunk with no block fetch and a
// cold one past the cache, counted but not admitted; a smaller stream
// fills the cache as Read does.
func TestLiveFileWriteTo(t *testing.T) {
	servers, seed := testRing(t, 4, 1<<30)
	const chunk = 64 << 10
	ctx := context.Background()
	// Four whole chunks and a short fifth.
	data := make([]byte, 4*chunk+1000)
	rand.New(rand.NewSource(21)).Read(data)
	chunks := int64(len(data)+chunk-1) / chunk
	// A cache of two chunks: every stream below but the last is more than
	// half of it, so it reads past the cache.
	small := peerstripe.WithChunkCache(2 * chunk)

	for _, code := range []string{"xor", "rs", "online"} {
		t.Run(code, func(t *testing.T) {
			c := dialTest(t, seed, peerstripe.WithCode(code), peerstripe.WithChunkCap(chunk), small)
			name := "writeto-" + code + ".dat"
			if _, err := c.StoreBytes(ctx, name, data); err != nil {
				t.Fatal(err)
			}
			f, err := c.Open(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var out bytes.Buffer
			n, err := io.Copy(&out, f)
			if err != nil || n != int64(len(data)) || !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("whole file: %d of %d bytes, equal %v, err %v", n, len(data), bytes.Equal(out.Bytes(), data), err)
			}
			if pos := position(t, f); pos != int64(len(data)) {
				t.Errorf("position after the stream = %d, want %d", pos, len(data))
			}
			if n, err := f.WriteTo(&out); n != 0 || err != nil {
				t.Errorf("WriteTo at EOF = %d, %v, want 0, nil", n, err)
			}

			const mid = chunk + chunk/3
			if _, err := f.Seek(mid, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			out.Reset()
			if n, err := f.WriteTo(&out); err != nil || n != int64(len(data)-mid) || !bytes.Equal(out.Bytes(), data[mid:]) {
				t.Fatalf("from mid-chunk: %d bytes, err %v", n, err)
			}
		})
	}

	c := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(chunk), small)
	if _, err := c.StoreBytes(ctx, "writeto.dat", data); err != nil {
		t.Fatal(err)
	}

	t.Run("cold chunks stay out of the cache", func(t *testing.T) {
		cold := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(chunk), small)
		f, err := cold.Open(ctx, "writeto.dat")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		before := cold.CacheStats()
		if n, err := f.WriteTo(io.Discard); err != nil || n != int64(len(data)) {
			t.Fatalf("stream: %d bytes, %v", n, err)
		}
		after := cold.CacheStats()
		if after.Bytes != before.Bytes {
			t.Errorf("cache bytes %d -> %d: a cold stream was admitted", before.Bytes, after.Bytes)
		}
		if d, m := after.Decodes-before.Decodes, after.Misses-before.Misses; d != chunks || m != chunks {
			t.Errorf("stream counted %d misses and %d decodes, want %d of each", m, d, chunks)
		}
	})

	t.Run("cached chunks cost no fetch", func(t *testing.T) {
		warm := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(chunk), small)
		f, err := warm.Open(ctx, "writeto.dat")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// Read caches the first two chunks, then the stream starts over.
		if _, err := io.ReadFull(f, make([]byte, 2*chunk)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		before := warm.CacheStats()
		base := totalFetchOps(servers)
		var out bytes.Buffer
		if _, err := f.WriteTo(&out); err != nil || !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("stream over a warm cache: %v", err)
		}
		after := warm.CacheStats()
		// Two xor blocks for each cold chunk, none for the cached two.
		if delta := totalFetchOps(servers) - base; delta != 2*(chunks-2) {
			t.Errorf("stream cost %d block fetches, want %d (a decode wave per cold chunk only)", delta, 2*(chunks-2))
		}
		if h, d := after.Hits-before.Hits, after.Decodes-before.Decodes; h != 2 || d != chunks-2 {
			t.Errorf("stream counted %d hits and %d decodes, want 2 and %d", h, d, chunks-2)
		}
		if after.Bytes != before.Bytes {
			t.Errorf("cache bytes %d -> %d over the stream", before.Bytes, after.Bytes)
		}
	})

	t.Run("failing writer", func(t *testing.T) {
		f, err := c.Open(ctx, "writeto.dat")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		w := &failAfter{limit: 2*chunk + 77}
		n, err := f.WriteTo(w)
		if !errors.Is(err, errSink) || n != int64(w.limit) {
			t.Fatalf("WriteTo = %d, %v, want %d, %v", n, err, w.limit, errSink)
		}
		if pos := position(t, f); pos != int64(w.limit) {
			t.Errorf("position after a failed write = %d, want the %d bytes written", pos, w.limit)
		}
		// The rest of the file follows from there.
		var rest bytes.Buffer
		if _, err := f.WriteTo(&rest); err != nil || !bytes.Equal(append(w.got.Bytes(), rest.Bytes()...), data) {
			t.Fatalf("resumed stream: %v", err)
		}

		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		short := &failAfter{limit: 1000, short: true}
		if n, err := f.WriteTo(short); !errors.Is(err, io.ErrShortWrite) || n != 1000 {
			t.Errorf("short writer: WriteTo = %d, %v, want 1000, io.ErrShortWrite", n, err)
		}
	})

	t.Run("cancelled mid-stream", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		f, err := c.Open(cctx, "writeto.dat")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var got int
		n, err := f.WriteTo(writerFunc(func(p []byte) (int, error) {
			got += len(p)
			cancel()
			return len(p), nil
		}))
		if !errors.Is(err, context.Canceled) || n != chunk || got != chunk {
			t.Errorf("WriteTo after a cancel = %d, %v (sink took %d), want %d, context.Canceled", n, err, got, chunk)
		}
	})

	t.Run("closed", func(t *testing.T) {
		f, err := c.Open(ctx, "writeto.dat")
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		if n, err := f.WriteTo(io.Discard); !errors.Is(err, os.ErrClosed) || n != 0 {
			t.Errorf("WriteTo after Close = %d, %v, want 0, os.ErrClosed", n, err)
		}
	})

	t.Run("within half the cache", func(t *testing.T) {
		roomy := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(chunk))
		for pass := 0; pass < 2; pass++ {
			f, err := roomy.Open(ctx, "writeto.dat")
			if err != nil {
				t.Fatal(err)
			}
			base := totalFetchOps(servers)
			var out bytes.Buffer
			_, err = f.WriteTo(&out)
			f.Close()
			if err != nil || !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("pass %d: %v", pass, err)
			}
			if st := roomy.CacheStats(); st.Bytes != int64(len(data)) || st.Decodes != chunks {
				t.Errorf("pass %d: cache holds %d bytes after %d decodes, want the %d-byte file after %d", pass, st.Bytes, st.Decodes, len(data), chunks)
			}
			if delta := totalFetchOps(servers) - base; pass == 1 && delta != 0 {
				t.Errorf("second stream cost %d block fetches, want 0", delta)
			}
		}
	})
}
