package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"peerstripe/internal/erasure"
)

// ErrUnavailable reports that a chunk could not be read: fewer of its
// blocks than the code needs could be fetched.
var ErrUnavailable = errors.New("core: file unavailable")

// ErrStoreFailed reports that a store gave up because the ring refused
// its placements.
var ErrStoreFailed = errors.New("core: file store failed")

// Part is one block range of a group fetch: Len bytes at Off of block
// Block of the chunk. The fetch sets Data to the bytes it got and
// leaves the rest of the part alone; a read takes a part whose Data is
// not exactly Len bytes long as not got, and never copies it.
type Part struct {
	Block    int
	Off, Len int64
	Data     []byte

	s int // the stripe of the read the part serves
}

// GroupFetchFunc reads the parts of chunk ci of file, whose blocks
// share a holder (see Codec.Holder), in one exchange. It calls
// progress with the byte count of each piece as it lands, letting a
// read tell a moving exchange from a stalled one, and never after it
// returns. ok false reports that the exchange failed as a whole. The
// parts' Data stay readable until rel, when non-nil, is released (see
// Releaser). It must honor ctx and be safe for concurrent use.
type GroupFetchFunc func(ctx context.Context, file string, ci int, parts []Part, progress func(bytes int)) (rel Releaser, ok bool)

// FetchBlocks adapts a whole-block fetch to a GroupFetchFunc: each part
// is sliced out of its block — what an in-memory block map, as in the
// tests and DecodeFile's callers, has.
func FetchBlocks(fetch FetchFunc) GroupFetchFunc {
	return func(_ context.Context, file string, ci int, parts []Part, progress func(int)) (Releaser, bool) {
		for i := range parts {
			p := &parts[i]
			if d, ok := fetch(BlockName(file, ci, p.Block)); ok && p.Off+p.Len <= int64(len(d)) {
				p.Data = d[p.Off : p.Off+p.Len]
				progress(len(p.Data))
			}
		}
		return nil, true
	}
}

// DecodeFile reconstructs the whole file described by cat, each chunk
// read by ReadChunk straight into its slot of the output, chunks
// concurrently (see Workers). It reads through Fetch, or through fetch
// when Fetch is nil.
func (cd *Codec) DecodeFile(ctx context.Context, cat *CAT, fetch FetchFunc) ([]byte, error) {
	if cd.Fetch == nil {
		c := *cd
		c.Fetch = FetchBlocks(fetch)
		cd = &c
	}
	out := make([]byte, cat.FileSize())
	err := cd.runJobs(ctx, len(cat.Rows), func(ci int) error {
		row := cat.Rows[ci]
		return cd.ReadChunk(ctx, cat, ci, 0, out[row.Start:row.End])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadChunk fills dst with bytes [lo, lo+len(dst)) of chunk ci of the
// file cat describes, moving only what they need (§4.1). It plans the
// read as stripes, one byte range of the chunk's blocks each, and runs
// them as one wave of group fetches. Under a systematic code (null,
// xor, rs) a range short of the chunk is a stripe per data-block range
// it touches, copied from that block or, when its holder fails or
// stalls, rebuilt from the same range of MinNeeded others. Anything
// else is one stripe of whole blocks, decoded from the first sufficient
// set: into dst when it is the chunk, through a buffer otherwise.
//
// The wave first asks for what a healthy read needs — the data-block
// ranges, or MinNeeded whole blocks — one group per holder, at most
// FetchParallel groups in flight, and replaces a failed part at once.
// On every HedgeDelay tick a group that moved no bytes since the
// last is stalled: its parts are replaced, once, while it may still
// answer first. A holder that failed or stalled is passed over while
// others can serve. Like every decode, the bytes are not checked
// against the row's sum.
func (cd *Codec) ReadChunk(ctx context.Context, cat *CAT, ci int, lo int64, dst []byte) error {
	if ci < 0 || ci >= len(cat.Rows) {
		return fmt.Errorf("core: chunk %d outside CAT of %d rows", ci, len(cat.Rows))
	}
	chunkLen, hi := cat.Rows[ci].Len(), lo+int64(len(dst))
	if lo < 0 || hi > chunkLen {
		return fmt.Errorf("core: range [%d,%d) outside chunk %d of %d bytes", lo, hi, ci, chunkLen)
	}
	if len(dst) == 0 {
		return nil
	}
	if cd.Fetch == nil {
		return fmt.Errorf("core: read of %s chunk %d: codec has no Fetch", cat.File, ci)
	}
	if sys, ok := cd.Code.(erasure.Systematic); ok && hi-lo < chunkLen {
		plan := planBlockRanges(chunkLen, cd.Code.DataBlocks(), lo, hi)
		stripes := make([]stripe, len(plan))
		for i, r := range plan {
			stripes[i] = stripe{primary: r.block, off: r.off, n: r.n, dst: dst[r.dst : r.dst+r.n], need: 1}
		}
		w := cd.newWave(cat.File, ci, stripes)
		w.sys = sys
		return w.run(ctx)
	}
	partial := hi-lo < chunkLen
	chunk := dst
	if partial {
		chunk = make([]byte, chunkLen)
	}
	n := int64(cd.Code.DataBlocks())
	err := cd.newWave(cat.File, ci, []stripe{{primary: -1, n: (chunkLen + n - 1) / n, dst: chunk, need: cd.Code.MinNeeded()}}).run(ctx)
	if err == nil && partial {
		copy(dst, chunk[lo:hi])
	}
	return err
}

// blockRange is one step of a partial-chunk read: n bytes at off of
// data block `block`, landing at dst of the caller's buffer.
type blockRange struct {
	block  int
	off, n int64
	dst    int64
}

// planBlockRanges maps bytes [lo, hi) of a chunk of chunkLen bytes,
// split into n data blocks the way the systematic codes split it (block
// i is chunk bytes [i·bs, (i+1)·bs) with bs = ⌈chunkLen/n⌉, the tail
// zero-padded), onto the data-block ranges that hold them, in order.
// The range is clipped to the chunk, so padding — the tail of the last
// block, and whole blocks when chunkLen < n — is never planned.
func planBlockRanges(chunkLen int64, n int, lo, hi int64) []blockRange {
	lo, hi = max(lo, 0), min(hi, chunkLen)
	if n < 1 || lo >= hi {
		return nil
	}
	bs := (chunkLen + int64(n) - 1) / int64(n)
	out := make([]blockRange, 0, (hi-1)/bs-lo/bs+1)
	for b := lo / bs; b*bs < hi; b++ {
		from, to := max(lo, b*bs), min(hi, (b+1)*bs)
		out = append(out, blockRange{block: int(b), off: from - b*bs, n: to - from, dst: from - lo})
	}
	return out
}

// stripe is one byte range of a read, [off, off+n) of every block, and
// the bytes of dst it fills.
type stripe struct {
	primary int // the data block dst is a range of; -1: dst is the chunk
	off, n  int64
	dst     []byte
	// need is how many parts must be live or landed: 1 while the
	// primary is sound (MinNeeded others once it is bad), or for a
	// whole chunk MinNeeded, one more each time a rateless decode falls
	// short.
	need  int
	bad   bool            // the primary failed or stalled
	tried []bool          // per block
	live  int             // parts in flight and not stalled
	got   []erasure.Block // parts landed, but the primary
	done  bool
}

// block is the stripe's k-th candidate: its primary first, then the
// other blocks in index order.
func (s *stripe) block(k int) int {
	switch {
	case s.primary < 0 || k > s.primary:
		return k
	case k == 0:
		return s.primary
	default:
		return k - 1
	}
}

// flight is one group fetch: its run of parts, its holder, the bytes
// it moved (and their count at the last tick), and what it returned.
type flight struct {
	moved   atomic.Int64
	seen    int64
	lo, hi  int
	holder  int
	live    bool
	stalled bool
	rel     Releaser
	ok      bool
}

func (f *flight) progress(n int) { f.moved.Add(int64(n)) }

// wave is one chunk read in flight (see ReadChunk).
type wave struct {
	cd       *Codec
	sys      erasure.Systematic // set for a ranged read
	file     string
	ci       int
	m, min   int
	holder   []int // per block
	stripes  []stripe
	pending  int // stripes not done
	parts    []Part
	flights  []flight
	nflights int
	inflight int
	avoid    []int // holders whose exchange failed or stalled, passed over while others serve
	results  chan int
	started  time.Time
}

// newWave sets up a read of the stripes. Every (stripe, block) pair is
// asked for at most once, so that many parts and flights are the most
// it needs and nothing a fetch goroutine holds is ever moved.
func (cd *Codec) newWave(file string, ci int, stripes []stripe) *wave {
	m := cd.Code.EncodedBlocks()
	cells := len(stripes) * m
	w := &wave{
		cd: cd, file: file, ci: ci, m: m, min: cd.Code.MinNeeded(),
		holder: make([]int, m), stripes: stripes, pending: len(stripes),
		parts: make([]Part, 0, cells), flights: make([]flight, cells),
		// Buffered to every flight: abandoned fetches complete into the
		// buffer, never leaking a goroutine past its fetch.
		results: make(chan int, cells),
	}
	for e := range w.holder {
		w.holder[e] = e
		if cd.Holder != nil {
			w.holder[e] = cd.Holder(file, ci, e)
		}
	}
	tried, got := make([]bool, cells), make([]erasure.Block, cells)
	for i := range stripes {
		s := &stripes[i]
		s.tried, s.got = tried[i*m:(i+1)*m], got[i*m:i*m:(i+1)*m]
	}
	return w
}

// want is how many more blocks the stripe asks for.
func (w *wave) want(s *stripe) int {
	if s.done {
		return 0
	}
	need := s.need
	if s.bad {
		need = w.min
	}
	return need - s.live - len(s.got)
}

func (w *wave) avoided(h int) bool { return slices.Contains(w.avoid, h) }

// firstHolder is the holder of the first block a stripe wants, passing
// over avoided holders when skipAvoided is set; -1 when there is none.
func (w *wave) firstHolder(skipAvoided bool) int {
	for i := range w.stripes {
		s := &w.stripes[i]
		for k := 0; k < w.m && w.want(s) > 0; k++ {
			if e := s.block(k); !s.tried[e] && !(skipAvoided && w.avoided(w.holder[e])) {
				return w.holder[e]
			}
		}
	}
	return -1
}

// launch starts one group fetch from the holder of the first wanted
// block (not on an avoided holder, while another has one): that
// holder's blocks among each stripe's next wanted ones, up to
// GroupBytes. It reports false when no stripe wants a block it can ask
// for.
func (w *wave) launch(ctx context.Context) bool {
	h := w.firstHolder(true)
	skipAvoided := h >= 0
	if !skipAvoided {
		h = w.firstHolder(false)
	}
	if h < 0 {
		return false
	}
	lo, size, limit := len(w.parts), int64(0), w.cd.GroupBytes
stripes:
	for i := range w.stripes {
		s := &w.stripes[i]
		want := w.want(s)
		for k, seen := 0, 0; k < w.m && seen < want; k++ {
			e := s.block(k)
			if s.tried[e] || (skipAvoided && w.avoided(w.holder[e])) {
				continue
			}
			seen++
			if w.holder[e] != h {
				continue
			}
			if limit > 0 && len(w.parts) > lo && size+s.n > limit {
				break stripes
			}
			s.tried[e] = true
			s.live++
			size += s.n
			w.parts = append(w.parts, Part{Block: e, Off: s.off, Len: s.n, s: i})
		}
	}
	g := w.nflights
	w.nflights++
	f := &w.flights[g]
	f.lo, f.hi, f.holder, f.live = lo, len(w.parts), h, true
	w.inflight++
	go w.fetch(ctx, g, w.parts[f.lo:f.hi:f.hi])
	return true
}

func (w *wave) fetch(ctx context.Context, g int, parts []Part) {
	f := &w.flights[g]
	f.rel, f.ok = w.cd.Fetch(ctx, w.file, w.ci, parts, f.progress)
	w.results <- g
}

// land takes in a finished group: each part that came back whole is
// copied into its stripe or kept to rebuild or decode from; the others
// failed.
func (w *wave) land(g int) {
	f := &w.flights[g]
	w.inflight--
	f.live = false
	if !f.ok {
		w.avoid = append(w.avoid, f.holder)
	}
	for i := f.lo; i < f.hi; i++ {
		p := &w.parts[i]
		s := &w.stripes[p.s]
		if !f.stalled {
			s.live--
		}
		if s.done {
			continue
		}
		if !f.ok || int64(len(p.Data)) != p.Len {
			s.bad = s.bad || p.Block == s.primary
			continue
		}
		if p.Block == s.primary {
			copy(s.dst, p.Data)
			w.finish(s, false)
			continue
		}
		s.got = append(s.got, erasure.Block{Index: p.Block, Data: p.Data})
		if len(s.got) < w.min {
			continue
		}
		switch {
		case s.primary >= 0:
			if w.sys.RebuildRange(s.dst, s.primary, s.got) == nil {
				w.finish(s, true)
			}
		case w.cd.Code.DecodeInto(s.dst, s.got) == nil:
			w.finish(s, false)
		default:
			// A rateless decode can fall just short: ask for one more.
			s.need = min(len(s.got)+1, w.m)
		}
	}
}

func (w *wave) finish(s *stripe, rebuilt bool) {
	s.done = true
	w.pending--
	if s.primary >= 0 && w.cd.OnRangeRead != nil {
		w.cd.OnRangeRead(len(s.dst), rebuilt)
	}
}

// stall marks every live group that moved no bytes since the last tick
// stalled, once: its parts stop counting as live, so their stripes ask
// for replacements, and its holder is avoided. OnHedge hears of the
// stalled parts whose stripes have a block left to ask for.
func (w *wave) stall() {
	stalled := 0
	for g := 0; g < w.nflights; g++ {
		f := &w.flights[g]
		if !f.live || f.stalled {
			continue
		}
		if p := f.moved.Load(); p > f.seen {
			f.seen = p
			continue
		}
		f.stalled = true
		w.avoid = append(w.avoid, f.holder)
		for i := f.lo; i < f.hi; i++ {
			p := &w.parts[i]
			s := &w.stripes[p.s]
			s.live--
			s.bad = s.bad || p.Block == s.primary
			if !s.done && slices.Contains(s.tried, false) {
				stalled++
			}
		}
	}
	if stalled > 0 && w.cd.OnHedge != nil {
		w.cd.OnHedge(stalled)
	}
}

// run launches what the stripes want, lands groups and marks stalls
// until every stripe is done, nothing is left to ask, or ctx is done.
// Fetches still out when it returns are cancelled.
func (w *wave) run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer w.release()
	var hedgeC <-chan time.Time
	d := w.cd.HedgeDelay
	if d >= 0 && w.m > 1 {
		if d == 0 {
			d = DefaultHedgeDelay
		}
		tick := getHedgeTick(d)
		defer hedgeTicks.Put(tick)
		hedgeC = tick.t.C
		w.started = time.Now()
	}
	limit := max(w.cd.FetchParallel, 1)
	for w.pending > 0 {
		for w.inflight < limit && ctx.Err() == nil && w.launch(ctx) {
		}
		if w.inflight == 0 {
			break
		}
		select {
		case <-ctx.Done():
			// The fetches still out complete into the buffered channel,
			// and release waits for them: returning leaks nothing.
			return fmt.Errorf("%s chunk %d: %w", w.file, w.ci, ctx.Err())
		case g := <-w.results:
			w.land(g)
		case now := <-hedgeC:
			if now.Sub(w.started) >= d { // not a stale or early tick of the recycled ticker
				w.stall()
			}
		}
	}
	switch {
	case w.pending == 0:
		return nil
	case ctx.Err() != nil: // cancelled with nothing in flight
		return fmt.Errorf("%s chunk %d: %w", w.file, w.ci, ctx.Err())
	}
	return fmt.Errorf("%w: %s chunk %d", ErrUnavailable, w.file, w.ci)
}

// release gives back what the fetches returned — no byte of dst is a
// view of them — those still out by a goroutine that waits for them.
func (w *wave) release() {
	for g := 0; g < w.nflights; g++ {
		if f := &w.flights[g]; !f.live && f.rel != nil {
			f.rel.Release()
		}
	}
	if n := w.inflight; n > 0 {
		go func() {
			for ; n > 0; n-- {
				if rel := w.flights[<-w.results].rel; rel != nil {
					rel.Release()
				}
			}
		}()
	}
}
