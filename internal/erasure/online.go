package erasure

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
)

// Online implements Maymounkov's rateless online code (§2.2 and [27]),
// the sub-optimal erasure code the paper selects for PeerStripe.
//
// Structure (following the technical report TR2003-883):
//
//   - The *outer code* appends numAux = ceil(0.55·q·ε·n) auxiliary
//     blocks; each of the n message blocks is XORed into q auxiliary
//     blocks chosen pseudo-randomly. Message + auxiliary blocks form the
//     composite message of n' blocks.
//   - The *inner code* produces check blocks ratelessly: check block i
//     is the XOR of d composite blocks, where d is drawn from the
//     soliton-like degree distribution ρ parameterised by ε. Which d
//     blocks depends on the Schedule (uniform by default; see
//     schedule.go for the structured windowed/interleaved variants).
//   - Decoding is belief propagation (peeling): any equation with
//     exactly one unknown block reveals it; recovered auxiliary blocks
//     feed the outer-code equations in both directions. When peeling
//     stalls the decoder *inactivates* a few columns and solves only
//     that small dense system by Gaussian elimination (see Decode).
//
// Receiving (1+ε)n' check blocks decodes with probability
// 1 − (ε/2)^(q+1). Because the code is rateless, a lost encoded block
// can be replaced by generating a brand-new check block without
// re-reading the whole file — the property §4.4 uses for repair
// ("drop ... and create another one at a different location").
//
// The outer-code assignments and the compositions of the m stored check
// blocks are deterministic functions of the seed and schedule, so they
// are derived once at NewOnline time and shared (read-only) by every
// Encode/Decode; an Online value is safe for concurrent use.
//
// The paper's Table 2 configuration is q = 3, ε = 0.01, 4096 blocks per
// 4 MB chunk.
type Online struct {
	n       int     // message blocks per chunk
	q       int     // outer-code degree
	eps     float64 // ε
	surplus float64 // extra check blocks stored beyond (1+ε)n'
	numAux  int
	nPrime  int // n + numAux
	m       int // check blocks stored per chunk
	cdf     []float64
	seed    int64
	sched   Schedule

	auxAssign  [][]int // message block -> its distinct aux targets
	auxEqIdx   [][]int // aux block -> [n+aux, message members...]
	auxMembers [][]int // aux block -> message members (auxEqIdx minus self)
	checkComps [][]int // composition of stored check blocks 0..m-1

	// Cache-blocked gather plans over the memoized structures above
	// (tile.go); built lazily on first Encode/FreshBlock.
	checkPlan planCache
	auxPlan   planCache
}

// OnlineOpts configures an Online code. Zero values select the paper's
// Table 2 parameters.
type OnlineOpts struct {
	Q       int     // outer degree; default 3
	Eps     float64 // ε; default 0.01
	Surplus float64 // stored check-block surplus beyond (1+ε)n'; default 0.02
	Seed    int64   // PRNG seed shared by encoder and decoder; default 1
	// Schedule selects how check-block compositions are drawn; nil
	// selects Uniform(), whose output is byte-identical to builds that
	// predate the schedule knob. Encoder and decoder must agree.
	Schedule Schedule
}

// NewOnline returns an online code over n message blocks per chunk.
func NewOnline(n int, opts OnlineOpts) (*Online, error) {
	if n < 1 {
		return nil, fmt.Errorf("erasure: online needs n >= 1, got %d", n)
	}
	if opts.Q == 0 {
		opts.Q = 3
	}
	if opts.Eps == 0 {
		opts.Eps = 0.01
	}
	if opts.Surplus == 0 {
		opts.Surplus = 0.02
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Schedule == nil {
		opts.Schedule = Uniform()
	}
	if opts.Eps <= 0 || opts.Eps >= 1 {
		return nil, fmt.Errorf("erasure: online eps must be in (0,1), got %g", opts.Eps)
	}
	c := &Online{n: n, q: opts.Q, eps: opts.Eps, surplus: opts.Surplus, seed: opts.Seed, sched: opts.Schedule}
	c.numAux = int(math.Ceil(0.55 * float64(c.q) * c.eps * float64(n)))
	if c.numAux < 1 {
		c.numAux = 1
	}
	c.nPrime = n + c.numAux
	c.m = int(math.Ceil((1 + c.eps + c.surplus) * float64(c.nPrime)))
	c.cdf = degreeCDF(c.eps)

	// Memoize the deterministic equation structure: the outer-code
	// assignments (and their inverse, as ready-made decoder equations)
	// and the composition of every stored check block. Encode and
	// Decode previously re-derived all of this from seeded RNGs on
	// every call, which dominated their runtime.
	c.auxAssign = c.computeAuxAssignments()
	members := make([][]int, c.numAux)
	for mi, as := range c.auxAssign {
		for _, ai := range as {
			members[ai] = append(members[ai], mi)
		}
	}
	c.auxEqIdx = make([][]int, c.numAux)
	for ai, ms := range members {
		idx := make([]int, 0, len(ms)+1)
		idx = append(idx, c.n+ai)
		idx = append(idx, ms...)
		// Message members arrive in ascending order (the mi loop above),
		// so the aux build's gathers already walk memory forward.
		c.auxEqIdx[ai] = idx
	}
	c.auxMembers = make([][]int, c.numAux)
	for ai, idx := range c.auxEqIdx {
		c.auxMembers[ai] = idx[1:] // [0] is the aux block itself
	}
	c.checkComps = make([][]int, c.m)
	for i := 0; i < c.m; i++ {
		c.checkComps[i] = c.computeCheckComposition(i)
	}
	return c, nil
}

// MustOnline is NewOnline for static configurations; it panics on error.
func MustOnline(n int, opts OnlineOpts) *Online {
	c, err := NewOnline(n, opts)
	if err != nil {
		panic(err)
	}
	return c
}

// degreeCDF builds the cumulative degree distribution of the inner code:
//
//	F  = ceil( ln(ε²/4) / ln(1−ε/2) )
//	ρ1 = 1 − (1+1/F)/(1+ε)
//	ρi = (1−ρ1)·F / ((F−1)·i·(i−1))   for 2 ≤ i ≤ F
func degreeCDF(eps float64) []float64 {
	f := int(math.Ceil(math.Log(eps*eps/4) / math.Log(1-eps/2)))
	if f < 2 {
		f = 2
	}
	rho := make([]float64, f+1) // rho[i] for degree i, rho[0] unused
	rho[1] = 1 - (1+1/float64(f))/(1+eps)
	for i := 2; i <= f; i++ {
		rho[i] = (1 - rho[1]) * float64(f) / (float64(f-1) * float64(i) * float64(i-1))
	}
	cdf := make([]float64, f+1)
	sum := 0.0
	for i := 1; i <= f; i++ {
		sum += rho[i]
		cdf[i] = sum
	}
	cdf[f] = 1 // absorb rounding
	return cdf
}

// sampleDegree draws a check-block degree from the distribution.
func (c *Online) sampleDegree(rng *rand.Rand) int {
	u := rng.Float64()
	// binary search over the CDF
	lo, hi := 1, len(c.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cdf[mid] >= u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Name implements Code.
func (c *Online) Name() string { return "online" }

// ScheduleName returns the name of the check schedule in use.
func (c *Online) ScheduleName() string { return c.sched.Name() }

// DataBlocks implements Code.
func (c *Online) DataBlocks() int { return c.n }

// EncodedBlocks implements Code.
func (c *Online) EncodedBlocks() int { return c.m }

// MinNeeded implements Code. Decoding needs (1+ε)n' check blocks in
// expectation; we report that bound (success beyond it is probabilistic
// but overwhelmingly likely at the stored surplus).
func (c *Online) MinNeeded() int {
	return int(math.Ceil((1 + c.eps) * float64(c.nPrime)))
}

// NumAux returns the number of auxiliary blocks of the outer code.
func (c *Online) NumAux() int { return c.numAux }

// auxRNG returns the deterministic source for the outer-code mapping.
func (c *Online) auxRNG() *rand.Rand {
	return rand.New(rand.NewSource(c.seed ^ 0x0a5f1e3d))
}

// checkRNG returns the deterministic source for check block i's
// composition. Encoder and decoder derive identical equations from the
// block index alone, so no equation metadata is stored with the block.
func (c *Online) checkRNG(i int) *rand.Rand {
	mix := int64(uint64(0x9e3779b97f4a7c15) + uint64(i)*uint64(0x2545f4914f6cdd1d))
	return rand.New(rand.NewSource(c.seed ^ mix))
}

// auxAssignments returns, for each message block, the q *distinct*
// auxiliary blocks (indices 0..numAux-1) it is XORed into. The result
// is memoized at construction; callers must not mutate it.
func (c *Online) auxAssignments() [][]int { return c.auxAssign }

// computeAuxAssignments derives the outer-code mapping from the seed.
// Distinctness matters: a duplicate assignment would cancel under XOR
// while the decoder's equations still listed it. When numAux < q every
// auxiliary block is used.
func (c *Online) computeAuxAssignments() [][]int {
	rng := c.auxRNG()
	k := c.q
	if k > c.numAux {
		k = c.numAux
	}
	out := make([][]int, c.n)
	for i := range out {
		as := make([]int, 0, k)
		seen := make(map[int]struct{}, k)
		for len(as) < k {
			v := rng.Intn(c.numAux)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			as = append(as, v)
		}
		out[i] = as
	}
	return out
}

// checkComposition returns the distinct composite-block indices XORed
// into check block i. Compositions of the m stored blocks are memoized;
// higher indices (rateless replacements) are derived on demand. Callers
// must not mutate the result.
func (c *Online) checkComposition(i int) []int {
	if i < len(c.checkComps) {
		return c.checkComps[i]
	}
	return c.computeCheckComposition(i)
}

func (c *Online) computeCheckComposition(i int) []int {
	rng := c.checkRNG(i)
	d := c.sampleDegree(rng)
	if d > c.nPrime {
		d = c.nPrime
	}
	idx := c.sched.members(rng, i, d, c.nPrime)
	// XOR is commutative, so the member order is free: sort it so the
	// encode/decode gathers walk the composite message in ascending
	// address order (sequential prefetch instead of random 1 KB hops).
	// The RNG draw sequence — and therefore the composition *set* and
	// the encoded bytes — is unchanged.
	sort.Ints(idx)
	return idx
}

// buildComposite splits the chunk — its padded tail, if any, into tail
// (tailLen bytes) — and XORs up the auxiliary blocks, returning the n'
// composite blocks. The aux builds run through the
// cache-blocked gather (tile.go) over the inverted outer-code mapping
// memoized in auxMembers: at the Table 2 shape the message sweep is
// ~4 MB against ~68 KB of aux destinations, so byte strips keep each
// message strip resident while every aux block that references it is
// updated. The aux blocks live in one pooled backing buffer — the
// check gathers then read them as one contiguous run — which the
// caller must release with putBuf when done.
func (c *Online) buildComposite(chunk []byte, bs int, tail []byte) (composite [][]byte, auxBacking []byte) {
	msg := splitViews(chunk, c.n, tail) // read-only XOR sources; no copy
	auxBacking = getRawBuf(c.numAux * bs)
	aux := make([][]byte, c.numAux)
	for ai := range aux {
		aux[ai] = auxBacking[ai*bs : (ai+1)*bs : (ai+1)*bs]
	}
	plan := c.auxPlan.get(c.auxMembers, c.n, tileBlocksFor(c.n))
	var srcs [][]byte
	applyTilePlan(plan, aux, msg, bs, stripBytesFor(c.n, c.numAux, bs), &srcs)
	composite = make([][]byte, c.nPrime)
	copy(composite, msg)
	copy(composite[c.n:], aux)
	return composite, auxBacking
}

// Encode implements Code: it splits the chunk into n message blocks,
// derives the auxiliary blocks, and emits m check blocks, each the
// fused XOR of its composition members. The emitted blocks share one
// backing array. The member gathers run cache-blocked (tile.go): byte
// strips bound the working set to L2 and a per-tile index over the
// memoized compositions walks each strip in ascending source tiles, so
// every source byte is read once per strip sweep instead of once per
// referencing check block. The blocked walk is byte-identical to the
// unblocked one (XOR reassociation only).
func (c *Online) Encode(chunk []byte) ([]Block, error) {
	blocks, _, err := c.EncodeInto(nil, chunk)
	return blocks, err
}

// EncodeInto implements EncoderInto: backing holds the m check blocks,
// then the padded tail of the message blocks they were gathered from.
// No block aliases chunk.
func (c *Online) EncodeInto(backing, chunk []byte) ([]Block, []byte, error) {
	bs := blockSize(len(chunk), c.n)
	backing = sized(backing, c.m*bs+tailLen(len(chunk), c.n))
	composite, auxBacking := c.buildComposite(chunk, bs, backing[c.m*bs:])
	out := make([]Block, c.m)
	dsts := make([][]byte, c.m)
	for i := 0; i < c.m; i++ {
		dsts[i] = backing[i*bs : (i+1)*bs : (i+1)*bs]
		out[i] = Block{Index: i, Data: dsts[i]}
	}
	plan := c.checkPlan.get(c.checkComps, c.nPrime, tileBlocksFor(c.nPrime))
	var srcs [][]byte
	applyTilePlan(plan, dsts, composite, bs, stripBytesFor(c.nPrime, c.m, bs), &srcs)
	putBuf(auxBacking)
	return out, backing, nil
}

// equation is one XOR relation over composite blocks used by the peeling
// decoder: value ^ XOR(blocks[idx] for idx in unknown ∪ known) = 0.
// idx aliases memoized composition slices and is never mutated.
type equation struct {
	value  []byte
	idx    []int // composite indices of the equation's blocks
	active int   // members neither peeled nor inactivated yet
}

// gf2Row is one constraint row of the dense inactive-column system:
// bits over the inactive set, rhs the folded equation value.
type gf2Row struct {
	bits []uint64
	rhs  []byte
}

// decodeScratch holds every per-decode slice DecodeWithStats needs —
// equation storage, the dedupe bitmap, peel bookkeeping, the
// per-column inactive-set masks, and the constraint rows — so
// steady-state decodes run at a near-constant handful of allocations
// (pinned by TestDecodeSteadyStateAllocs) instead of one per received
// block.
type decodeScratch struct {
	eqs          []equation
	values       []byte   // one backing array for every equation RHS
	seenBits     []uint64 // received-index dedupe bitmap (idx < 2m)
	accepted     []int    // indices into the caller's blocks slice
	counts       []int
	occBacking   []int
	occurrences  [][]int
	state        []uint8
	pivotEq      []int
	isPivot      []bool
	peelOrder    []int
	ready        []int
	candScore    []int
	touched      []int
	known        [][]byte
	colMask      [][]uint64
	maskBacking  []uint64
	inactiveIdx  []int
	inactiveCols []int
	inactiveVal  [][]byte
	rows         []gf2Row
	bitBacking   []uint64
	srcs         [][]byte // member batch for the fused xorBlocks folds
}

var decodeScratchPool sync.Pool

// grow returns *buf resized to n elements with unspecified contents.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growZero returns *buf resized to n elements, all zeroed.
func growZero[T any](buf *[]T, n int) []T {
	s := grow(buf, n)
	clear(s)
	return s
}

// DecodeStats reports how a decode resolved — the observability hook
// the schedule-comparison experiments read. BPComplete is the
// "waterfall" indicator: true when plain belief propagation finished
// without inactivating a single column.
type DecodeStats struct {
	Received     int  // distinct, well-formed check blocks used
	Peeled       int  // composite columns recovered by (symbolic) peeling
	Inactivated  int  // columns deferred to the dense residual solve
	ResidualRows int  // constraint rows handed to the GE solver
	BPComplete   bool // peeling alone recovered every message block
}

// column states during the structural peel.
const (
	colUnknown = uint8(iota)
	colPeeled
	colInactive
)

// Decode implements Code. It accepts any subset of the emitted check
// blocks (duplicate indices are ignored); with at least MinNeeded of
// them it succeeds with overwhelming probability.
func (c *Online) Decode(blocks []Block, chunkLen int) ([]byte, error) {
	out, _, err := c.DecodeWithStats(blocks, chunkLen)
	return out, err
}

// DecodeWithStats is Decode plus resolution statistics.
//
// The decoder is belief-propagation peeling with *inactivation*: the
// structural peel runs over equation/column incidence only (no byte
// work). When the ready queue drains before every column is resolved,
// the column referenced by the most still-live equations is marked
// inactive — treated as a symbolic unknown — and peeling continues.
// A numeric replay then computes each peeled column's value and its
// GF(2) combination of inactive columns; the equations left over by
// the peel become constraint rows over only the inactive columns, a
// dense system of tens of columns (instead of the hundreds the old
// whole-residual Gaussian elimination swallowed) solved by the bitset
// GE in solveInactive. Back-substitution then finishes the message
// blocks. At the paper's 2% stored surplus this turns the ML fallback
// from the dominant decode cost into a footnote.
func (c *Online) DecodeWithStats(blocks []Block, chunkLen int) (out []byte, st DecodeStats, err error) {
	if chunkLen == 0 {
		return []byte{}, st, nil
	}
	bs := blockSize(chunkLen, c.n)

	// All per-decode state lives in one pooled scratch struct; join()
	// copies the recovered data out before the scratch is recycled.
	ds, _ := decodeScratchPool.Get().(*decodeScratch)
	if ds == nil {
		ds = &decodeScratch{}
	}
	defer decodeScratchPool.Put(ds)

	// Inner-code equations from the received check blocks. Duplicate
	// indices carry no new information (and an inconsistent duplicate
	// would corrupt the peel), so only the first copy of each index is
	// kept — a bitmap for the common range, a small map for the rare
	// far-out repair indices. Blocks of the wrong size (stale readers,
	// truncated fetches) are skipped the same way. Indices at or beyond
	// EncodedBlocks() are accepted: rateless repair (FreshBlock) mints
	// replacement blocks with new indices.
	seenLimit := 2 * c.m
	seenBits := growZero(&ds.seenBits, (seenLimit+63)/64)
	var seenHigh map[int]struct{}
	accepted := ds.accepted[:0]
	for bi := range blocks {
		b := &blocks[bi]
		if b.Index < 0 || len(b.Data) != bs {
			continue
		}
		if b.Index < seenLimit {
			w, m := b.Index/64, uint64(1)<<(b.Index%64)
			if seenBits[w]&m != 0 {
				continue
			}
			seenBits[w] |= m
		} else {
			if seenHigh == nil {
				seenHigh = make(map[int]struct{}, 8)
			}
			if _, dup := seenHigh[b.Index]; dup {
				continue
			}
			seenHigh[b.Index] = struct{}{}
		}
		accepted = append(accepted, bi)
	}
	ds.accepted = accepted
	st.Received = len(accepted)

	// Equation values share one backing array: one (pooled) allocation
	// instead of one per received block.
	nEq := len(accepted) + c.numAux
	values := grow(&ds.values, nEq*bs)
	eqs := ds.eqs[:0]
	for vi, bi := range accepted {
		v := values[vi*bs : (vi+1)*bs : (vi+1)*bs]
		copy(v, blocks[bi].Data)
		idx := c.checkComposition(blocks[bi].Index)
		eqs = append(eqs, equation{value: v, idx: idx, active: len(idx)})
	}
	// Outer-code equations: aux_j XOR (its message members) = 0.
	for ai, idx := range c.auxEqIdx {
		vi := len(accepted) + ai
		v := values[vi*bs : (vi+1)*bs : (vi+1)*bs]
		clear(v)
		eqs = append(eqs, equation{value: v, idx: idx, active: len(idx)})
	}
	ds.eqs = eqs

	// occurrences[ci] lists the equations mentioning composite block ci,
	// laid out in one backing array sized by a counting pass.
	counts := growZero(&ds.counts, c.nPrime)
	total := 0
	for i := range eqs {
		for _, ci := range eqs[i].idx {
			counts[ci]++
		}
		total += len(eqs[i].idx)
	}
	occBacking := grow(&ds.occBacking, total)
	occurrences := grow(&ds.occurrences, c.nPrime)
	off := 0
	for ci, n := range counts {
		occurrences[ci] = occBacking[off : off : off+n]
		off += n
	}
	for i := range eqs {
		for _, ci := range eqs[i].idx {
			occurrences[ci] = append(occurrences[ci], i)
		}
	}

	// ---- Structural peel (incidence only, no byte work). ----
	state := growZero(&ds.state, c.nPrime)
	pivotEq := grow(&ds.pivotEq, c.nPrime) // peeled column -> defining equation
	isPivot := growZero(&ds.isPivot, len(eqs))
	peelOrder := ds.peelOrder[:0]
	liveEqs := len(eqs)

	// resolveColumn marks ci peeled or inactive and retires it from
	// every equation, feeding the ready queue as singletons appear.
	ready := ds.ready[:0]
	resolveColumn := func(ci int) {
		for _, otherID := range occurrences[ci] {
			o := &eqs[otherID]
			if o.active == 0 {
				continue
			}
			o.active--
			switch o.active {
			case 1:
				ready = append(ready, otherID)
			case 0:
				// Became redundant without serving as a pivot; it will
				// contribute a constraint row over the inactive set.
				liveEqs--
			}
		}
	}
	for eqID := range eqs {
		if eqs[eqID].active == 1 {
			ready = append(ready, eqID)
		}
	}
	// Scratch for the stall-time inactivation scan, cleared via touched.
	candScore := growZero(&ds.candScore, c.nPrime)
	touched := ds.touched[:0]
	for liveEqs > 0 {
		for len(ready) > 0 {
			eqID := ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			e := &eqs[eqID]
			if e.active != 1 {
				continue // resolved in the meantime
			}
			target := -1
			for _, ci := range e.idx {
				if state[ci] == colUnknown {
					target = ci
					break
				}
			}
			if target < 0 {
				continue
			}
			state[target] = colPeeled
			pivotEq[target] = eqID
			isPivot[eqID] = true
			peelOrder = append(peelOrder, target)
			e.active = 0
			liveEqs--
			resolveColumn(target)
		}
		if liveEqs == 0 {
			break
		}
		// Stalled: inactivate the unknown column that the most live
		// equations reference, which unlocks the most peeling per
		// deferred column (the ready queue is stall-aware: it resumes
		// from exactly the singletons this creates).
		touched = touched[:0]
		for i := range eqs {
			if eqs[i].active == 0 {
				continue
			}
			for _, ci := range eqs[i].idx {
				if state[ci] != colUnknown {
					continue
				}
				if candScore[ci] == 0 {
					touched = append(touched, ci)
				}
				candScore[ci]++
			}
		}
		best, bestScore := -1, 0
		for _, ci := range touched {
			if candScore[ci] > bestScore {
				best, bestScore = ci, candScore[ci]
			}
		}
		for _, ci := range touched {
			candScore[ci] = 0
		}
		if best < 0 {
			// Live equations but no unknown columns cannot happen (an
			// equation is live only while it has unknown members); guard
			// against it to keep garbage inputs from looping forever.
			break
		}
		state[best] = colInactive
		st.Inactivated++
		resolveColumn(best)
	}
	st.Peeled = len(peelOrder)
	st.BPComplete = st.Inactivated == 0
	ds.ready, ds.touched, ds.peelOrder = ready, touched, peelOrder

	// ---- Numeric replay in peel order. ----
	// Each peeled column's value is its pivot equation's right-hand
	// side folded with the values of its already-peeled members — a
	// per-equation batch through the fused xorBlocks — while the
	// inactive members are tracked symbolically as a bitmask over the
	// inactive set. With no inactivations this *is* plain BP.
	known := growZero(&ds.known, c.nPrime)
	nInactive := st.Inactivated
	maskWords := (nInactive + 63) / 64
	var inactiveIdx []int  // inactive column -> dense index
	var colMask [][]uint64 // peeled column -> inactive-combination mask
	var inactiveCols []int // dense index -> column
	if nInactive > 0 {
		inactiveIdx = grow(&ds.inactiveIdx, c.nPrime)
		inactiveCols = ds.inactiveCols[:0]
		for ci := 0; ci < c.nPrime; ci++ {
			if state[ci] == colInactive {
				inactiveIdx[ci] = len(inactiveCols)
				inactiveCols = append(inactiveCols, ci)
			}
		}
		ds.inactiveCols = inactiveCols
		colMask = growZero(&ds.colMask, c.nPrime)
		maskBacking := growZero(&ds.maskBacking, len(peelOrder)*maskWords)
		for oi, ci := range peelOrder {
			colMask[ci] = maskBacking[oi*maskWords : (oi+1)*maskWords : (oi+1)*maskWords]
		}
	}
	srcs := ds.srcs[:0]
	for _, ci := range peelOrder {
		e := &eqs[pivotEq[ci]]
		val := e.value
		srcs = srcs[:0]
		for _, mi := range e.idx {
			if mi == ci {
				continue
			}
			if state[mi] == colInactive {
				j := inactiveIdx[mi]
				colMask[ci][j/64] ^= 1 << (j % 64)
				continue
			}
			// Peeled earlier: value and mask are final.
			srcs = append(srcs, known[mi])
			if nInactive > 0 {
				for w, bits := range colMask[mi] {
					colMask[ci][w] ^= bits
				}
			}
		}
		xorBlocks(val, srcs)
		known[ci] = val
	}
	ds.srcs = srcs

	if nInactive > 0 {
		// Constraint rows: every equation that resolved without being a
		// pivot reduces to a relation over only the inactive columns.
		// Row bit-vectors and the row list come from the pooled scratch;
		// the per-row peeled-member folds batch through xorBlocks like
		// the replay above.
		rows := ds.rows[:0]
		bitBacking := growZero(&ds.bitBacking, (len(eqs)-len(peelOrder))*maskWords)
		for i := range eqs {
			if isPivot[i] || eqs[i].active != 0 {
				continue
			}
			bits := bitBacking[:maskWords:maskWords]
			bitBacking = bitBacking[maskWords:]
			rhs := eqs[i].value // equation is spent; fold in place
			srcs = srcs[:0]
			zero := true
			for _, mi := range eqs[i].idx {
				if state[mi] == colInactive {
					j := inactiveIdx[mi]
					bits[j/64] ^= 1 << (j % 64)
				} else if state[mi] == colPeeled {
					srcs = append(srcs, known[mi])
					for w, b := range colMask[mi] {
						bits[w] ^= b
					}
				}
				// colUnknown members are unreachable here: a resolved
				// equation has no unknown members.
			}
			xorBlocks(rhs, srcs)
			for _, b := range bits {
				if b != 0 {
					zero = false
					break
				}
			}
			if zero {
				continue // pure redundancy, no information on the inactive set
			}
			rows = append(rows, gf2Row{bits: bits, rhs: rhs})
		}
		ds.srcs = srcs
		ds.rows = rows
		st.ResidualRows = len(rows)

		// Bitset Gaussian elimination over the (small) inactive system.
		pivotOf := make([]int, nInactive) // dense column -> row, -1 if none
		for j := range pivotOf {
			pivotOf[j] = -1
		}
		next := 0
		for j := 0; j < nInactive && next < len(rows); j++ {
			w, b := j/64, uint64(1)<<(j%64)
			p := -1
			for r := next; r < len(rows); r++ {
				if rows[r].bits[w]&b != 0 {
					p = r
					break
				}
			}
			if p < 0 {
				continue
			}
			rows[p], rows[next] = rows[next], rows[p]
			for r := 0; r < len(rows); r++ {
				if r != next && rows[r].bits[w]&b != 0 {
					for k := range rows[r].bits {
						rows[r].bits[k] ^= rows[next].bits[k]
					}
					xorInto(rows[r].rhs, rows[next].rhs)
				}
			}
			pivotOf[j] = next
			next++
		}
		inactiveVal := growZero(&ds.inactiveVal, nInactive)
		for j, p := range pivotOf {
			if p < 0 {
				continue
			}
			// Accept the row only if full elimination reduced it to a
			// singleton on column j. When the system is rank-deficient a
			// pivot row can still carry bits of pivotless (free) columns;
			// its rhs is then x_j XOR x_free, and reading it off as x_j
			// would return corrupted data as a successful decode.
			singleton := true
			for w, b := range rows[p].bits {
				want := uint64(0)
				if w == j/64 {
					want = 1 << (j % 64)
				}
				if b != want {
					singleton = false
					break
				}
			}
			if singleton {
				inactiveVal[j] = rows[p].rhs
			}
		}
		for j, ci := range inactiveCols {
			known[ci] = inactiveVal[j] // nil when the system was rank-deficient
		}
		// Back-substitute the solved inactive columns into the message
		// blocks (only those; auxiliary values are not needed anymore).
		for ci := 0; ci < c.n; ci++ {
			if state[ci] != colPeeled {
				continue
			}
			for w, bits := range colMask[ci] {
				for bits != 0 {
					j := w*64 + trailingZeros(bits)
					bits &= bits - 1
					if inactiveVal[j] == nil {
						return nil, st, c.insufficientErr(st)
					}
					xorInto(known[ci], inactiveVal[j])
				}
			}
		}
	}

	for ci := 0; ci < c.n; ci++ {
		if known[ci] == nil {
			return nil, st, c.insufficientErr(st)
		}
	}
	return join(known[:c.n], chunkLen), st, nil
}

// trailingZeros names the bit-scan for the back-substitution loop.
func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// insufficientErr wraps ErrInsufficient with the context that makes a
// failed decode diagnosable from psbench and grid logs: code shape,
// how many distinct blocks arrived versus the expected threshold, and
// how far resolution got. errors.Is(err, ErrInsufficient) still holds.
func (c *Online) insufficientErr(st DecodeStats) error {
	unresolved := c.nPrime - st.Peeled - st.Inactivated
	return fmt.Errorf("%w: online(n=%d, n'=%d, sched=%s): %d distinct blocks (min %d), %d columns unresolved, %d peeled, %d inactivated, %d residual rows",
		ErrInsufficient, c.n, c.nPrime, c.sched.Name(), st.Received, c.MinNeeded(), unresolved, st.Peeled, st.Inactivated, st.ResidualRows)
}

// FreshBlock generates one additional check block with the given index
// (index ≥ EncodedBlocks() for replacements). This is the rateless
// repair path of §4.4: a node re-creating a lost encoded block produces
// a functionally equal — not identical — block. The mint cost is
// dominated by rebuilding the auxiliary blocks, which buildComposite
// runs through the cache-blocked gather; the final single-composition
// gather touches only ~d blocks and stays unblocked.
func (c *Online) FreshBlock(chunk []byte, index int) (Block, error) {
	if index < 0 {
		return Block{}, fmt.Errorf("erasure: fresh block index %d < 0", index)
	}
	bs := blockSize(len(chunk), c.n)
	tail := getRawBuf(tailLen(len(chunk), c.n))
	composite, aux := c.buildComposite(chunk, bs, tail)
	data := make([]byte, bs)
	comp := c.checkComposition(index)
	srcs := make([][]byte, 0, len(comp))
	for _, ci := range comp {
		srcs = append(srcs, composite[ci])
	}
	xorBlocksSet(data, srcs)
	putBuf(aux)
	putBuf(tail)
	return Block{Index: index, Data: data}, nil
}
