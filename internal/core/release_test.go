package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"peerstripe/internal/erasure"
)

// frameLike is a block handed out the way the live client hands out a
// receive frame: a private copy the codec must give back once, after it
// is done with the bytes. Release scribbles the copy, so a view used
// after it reads as the wrong bytes.
type frameLike struct {
	data     []byte
	mu       sync.Mutex
	released int
}

func (f *frameLike) Release() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.released++
	for i := range f.data {
		f.data[i] = ^f.data[i]
	}
}

// frameLedger records every frameLike handed out.
type frameLedger struct {
	mu     sync.Mutex
	frames []*frameLike
}

func (l *frameLedger) lend(d []byte) ([]byte, Releaser) {
	f := &frameLike{data: bytes.Clone(d)}
	l.mu.Lock()
	l.frames = append(l.frames, f)
	l.mu.Unlock()
	return f.data, f
}

// check fails when a frame was released more than once, or — with
// all set, for a read whose every fetch was taken — not at all.
func (l *frameLedger) check(t *testing.T, what string, all bool) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, f := range l.frames {
		f.mu.Lock()
		n := f.released
		f.mu.Unlock()
		if n > 1 || (all && n != 1) {
			t.Errorf("%s: frame %d released %d times", what, i, n)
		}
	}
}

// TestParallelDecodeReleasesAfterDecode checks the hedged chunk read
// gives back every block it took exactly once, and only after the
// decode: the decoded chunk is right although each block is scribbled
// the moment it is released.
func TestParallelDecodeReleasesAfterDecode(t *testing.T) {
	for _, code := range []erasure.Code{erasure.MustXOR(2), erasure.MustRS(8, 2), mustCode(t, "online")} {
		data := randData(5, 300_000)
		sizes := PlanChunkSizes(int64(len(data)), 100_000)
		mf, cat := newMemFetch(t, code, "rel.dat", data, sizes)
		var ledger frameLedger
		cd := &Codec{Code: code, FetchParallel: 4}
		cd.StreamFetch = perBlock(func(name string, progress func(int)) ([]byte, Releaser, bool) {
			d, ok := mf.fetch(name)
			if !ok {
				return nil, nil, false
			}
			progress(len(d))
			view, rel := ledger.lend(d)
			return view, rel, true
		})
		got, err := cd.DecodeFile(context.Background(), cat, mf.fetch)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: DecodeFile over released blocks: %v", code.Name(), err)
		}
		chunk, err := cd.DecodeChunk(context.Background(), cat, 1, mf.fetch)
		if err != nil || !bytes.Equal(chunk, data[cat.Rows[1].Start:cat.Rows[1].End]) {
			t.Fatalf("%s: DecodeChunk over released blocks: %v", code.Name(), err)
		}
		ledger.check(t, code.Name(), true)
	}
}

// TestRangeReadReleasesAfterCopy checks a partial-chunk read gives back
// the ranges it took — the holder's after the copy, the others' after
// the rebuild — and never twice.
func TestRangeReadReleasesAfterCopy(t *testing.T) {
	for _, holderDown := range []bool{false, true} {
		rig := newRangeRig(t, -1)
		rig.bend = func(_ context.Context, _ int, h []byte) ([]byte, bool) { return h, true }
		var ledger frameLedger
		honest := rig.cd.RangeFetch
		rig.cd.RangeFetch = func(ctx context.Context, name string, off, n int64) ([]byte, Releaser, bool) {
			if holderDown && name == BlockName("f", 0, 0) {
				return nil, nil, false
			}
			d, _, ok := honest(ctx, name, off, n)
			if !ok {
				return nil, nil, false
			}
			view, rel := ledger.lend(d)
			return view, rel, true
		}
		got, err := rig.read(context.Background())
		if err != nil || !bytes.Equal(got, rig.data[100:200]) {
			t.Fatalf("holder down %v: %v", holderDown, err)
		}
		// A rebuild may return before every other range has landed; the
		// late ones stay unreleased.
		ledger.check(t, fmt.Sprintf("holder down %v", holderDown), !holderDown)
	}
}

func mustCode(t *testing.T, name string) erasure.Code {
	t.Helper()
	code, err := CodeFor(name, "")
	if err != nil {
		t.Fatal(err)
	}
	return code
}
