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
//     schedule.go for the banded schedule the live data path uses).
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
	// (tile.go); each built once, on first Encode/FreshBlock.
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
// composite blocks. The aux builds run through plan, the cache-blocked
// gather (tile.go) over the inverted outer-code mapping memoized in
// auxMembers, so all the aux updates one message tile feeds run while
// that tile is hot. The aux blocks live in one pooled backing buffer —
// the check gathers then read them as one contiguous run — which the
// caller must release with putBuf when done.
func (c *Online) buildComposite(chunk []byte, bs int, tail []byte, plan *tilePlan) (composite [][]byte, auxBacking []byte) {
	msg := splitViews(chunk, c.n, tail) // read-only XOR sources; no copy
	auxBacking = getRawBuf(c.numAux * bs)
	aux := make([][]byte, c.numAux)
	for ai := range aux {
		aux[ai] = auxBacking[ai*bs : (ai+1)*bs : (ai+1)*bs]
	}
	applyTilePlan(plan, aux, msg)
	composite = make([][]byte, c.nPrime)
	copy(composite, msg)
	copy(composite[c.n:], aux)
	return composite, auxBacking
}

// Encode implements Code: it splits the chunk into n message blocks,
// derives the auxiliary blocks, and emits m check blocks, each the
// fused XOR of its composition members. The emitted blocks share one
// backing array. The member gathers run cache-blocked (tile.go): a
// per-tile index over the memoized compositions walks them in
// ascending source tiles, so each tile's sources stay in L2 while
// every check block that references them is updated. The blocked walk
// is byte-identical to the unblocked one (XOR reassociation only).
func (c *Online) Encode(chunk []byte) ([]Block, error) {
	blocks, _, err := c.EncodeInto(nil, chunk)
	return blocks, err
}

// EncodeInto implements Code: backing holds the m check blocks,
// then the padded tail of the message blocks they were gathered from.
// No block aliases chunk.
func (c *Online) EncodeInto(backing, chunk []byte) ([]Block, []byte, error) {
	return c.encodeWith(backing, chunk, c.auxPlan.get(c.auxMembers, c.n), c.checkPlan.get(c.checkComps, c.nPrime))
}

// BackingLen implements Code: the m check blocks and the padded tail.
func (c *Online) BackingLen(chunkLen int) int {
	return c.m*blockSize(chunkLen, c.n) + tailLen(chunkLen, c.n)
}

// encodeWith is EncodeInto over the given aux and check gather plans.
func (c *Online) encodeWith(backing, chunk []byte, auxPlan, checkPlan *tilePlan) ([]Block, []byte, error) {
	bs := blockSize(len(chunk), c.n)
	backing = sized(backing, c.BackingLen(len(chunk)))
	composite, auxBacking := c.buildComposite(chunk, bs, backing[c.m*bs:], auxPlan)
	out := make([]Block, c.m)
	dsts := make([][]byte, c.m)
	for i := 0; i < c.m; i++ {
		dsts[i] = backing[i*bs : (i+1)*bs : (i+1)*bs]
		out[i] = Block{Index: i, Data: dsts[i]}
	}
	applyTilePlan(checkPlan, dsts, composite)
	putBuf(auxBacking)
	return out, backing, nil
}

// equation is one XOR relation over composite blocks used by the peeling
// decoder: value ^ XOR(blocks[idx] for idx in unknown ∪ known) = 0.
// value is a received block's Data, never written, or nil for an
// outer-code equation, whose value is zero. idx aliases memoized
// composition slices and is never mutated.
type equation struct {
	value  []byte
	idx    []int // composite indices of the equation's blocks
	active int   // members neither peeled nor inactivated yet
}

// gf2Row is one constraint row of the dense inactive-column system:
// eq, the equation it came from; bits over the inactive set; and rhs,
// the folded equation value, which only the numeric solve carries.
type gf2Row struct {
	eq   int
	bits []uint64
	rhs  []byte
}

// decodeScratch holds every per-decode slice decode needs —
// the column slots outside dst, equation storage, the dedupe bitmap,
// peel bookkeeping, the per-column inactive-set masks, and the
// constraint rows — so steady-state decodes allocate nothing (pinned
// by TestDecodeSteadyStateAllocs) instead of one buffer per received
// block.
type decodeScratch struct {
	values       []byte // slots of the columns that have none in dst
	eqs          []equation
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
	col          [][]byte // column -> its slot, in dst or values
	colMask      [][]uint64
	maskBacking  []uint64
	inactiveIdx  []int
	inactiveCols []int
	rows         []gf2Row
	bitBacking   []uint64
	pivotOf      []int
	unsolved     []uint64
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
	out, _, err := c.decode(nil, chunkLen, blocks)
	return out, err
}

// DecodeInto implements Code: every recovered message byte is
// written once, straight into its place in dst.
func (c *Online) DecodeInto(dst []byte, blocks []Block) error {
	_, _, err := c.decode(dst, len(dst), blocks)
	return err
}

// DecodeWithStats is Decode plus resolution statistics.
func (c *Online) DecodeWithStats(blocks []Block, chunkLen int) ([]byte, DecodeStats, error) {
	return c.decode(nil, chunkLen, blocks)
}

// decode is the decoder behind Decode, DecodeInto and DecodeWithStats:
// decodeWith over a pooled scratch.
func (c *Online) decode(dst []byte, chunkLen int, blocks []Block) ([]byte, DecodeStats, error) {
	if chunkLen == 0 {
		return []byte{}, DecodeStats{}, nil
	}
	ds, _ := decodeScratchPool.Get().(*decodeScratch)
	if ds == nil {
		ds = &decodeScratch{}
	}
	defer decodeScratchPool.Put(ds)
	return c.decodeWith(ds, dst, chunkLen, blocks)
}

// decodeWith decodes into dst, or, when dst is nil, into a fresh
// chunkLen bytes. The output is allocated only once the symbolic solve
// has shown the blocks suffice, before any byte work, so an attempt
// that falls short allocates no output and writes nothing.
//
// The decoder is belief-propagation peeling with *inactivation*: the
// structural peel runs over equation/column incidence only (no byte
// work). When the ready queue drains before every column is resolved,
// the column referenced by the most still-live equations is marked
// inactive — treated as a symbolic unknown — and peeling continues.
// Each peeled column's GF(2) combination of inactive columns follows
// in peel order; the equations left over by the peel become
// constraint rows over only the inactive columns, a dense system of
// tens of columns solved by bitset Gauss-Jordan elimination
// (eliminate). Only then do bytes move, and each lands once, in its
// column's slot: a message column's own bs bytes of dst when they lie
// wholly inside the chunk, ds.values for the aux columns and the
// padded tail. The numeric replay sets each peeled column from its
// pivot equation's received block and its peeled members; the
// constraint rows the solve pivots on are folded into the slots of
// the inactive columns they solve, and eliminated again there; and
// back-substitution XORs the solved inactive columns into the peeled
// message columns in place. The received blocks are only read.
func (c *Online) decodeWith(ds *decodeScratch, dst []byte, chunkLen int, blocks []Block) (out []byte, st DecodeStats, err error) {
	bs := blockSize(chunkLen, c.n)

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

	// An equation's value is its received block itself; the outer-code
	// equations, aux_j XOR (its message members) = 0, have none.
	eqs := ds.eqs[:0]
	for _, bi := range accepted {
		idx := c.checkComposition(blocks[bi].Index)
		eqs = append(eqs, equation{value: blocks[bi].Data, idx: idx, active: len(idx)})
	}
	for _, idx := range c.auxEqIdx {
		eqs = append(eqs, equation{idx: idx, active: len(idx)})
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

	// ---- Symbolic solve (bits only, still no byte work). ----
	// Each peeled column's value is its pivot equation's value folded
	// with its other members; the inactive members among those stay
	// symbolic, so the column is known up to colMask[ci], a combination
	// of inactive columns, accumulated here in peel order.
	nInactive := st.Inactivated
	maskWords := (nInactive + 63) / 64
	var inactiveIdx []int  // inactive column -> dense index
	var colMask [][]uint64 // peeled column -> inactive-combination mask
	var inactiveCols []int // dense index -> column
	var rows []gf2Row      // constraint rows; the pivot rows lead
	var pivotOf []int      // dense index -> its pivot row, -1 if none
	var unsolved []uint64  // dense indices the solve leaves free
	// foldMask XORs into m the inactive combination that the members of
	// idx other than skip contribute.
	foldMask := func(m []uint64, idx []int, skip int) {
		for _, mi := range idx {
			switch {
			case mi == skip:
			case state[mi] == colInactive:
				j := inactiveIdx[mi]
				m[j/64] ^= 1 << (j % 64)
			default:
				// Peeled earlier: its mask is final. (colUnknown members
				// are unreachable: a resolved equation has none.)
				for w, b := range colMask[mi] {
					m[w] ^= b
				}
			}
		}
	}
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
			foldMask(colMask[ci], eqs[pivotEq[ci]].idx, ci)
		}

		// Constraint rows: every equation that resolved without being a
		// pivot reduces to a relation over only the inactive columns.
		rows = ds.rows[:0]
		bitBacking := growZero(&ds.bitBacking, (len(eqs)-len(peelOrder))*maskWords)
		for i := range eqs {
			if isPivot[i] || eqs[i].active != 0 {
				continue
			}
			bits := bitBacking[:maskWords:maskWords]
			foldMask(bits, eqs[i].idx, -1)
			if isZero(bits) {
				continue // pure redundancy, no information on the inactive set
			}
			bitBacking = bitBacking[maskWords:]
			rows = append(rows, gf2Row{eq: i, bits: bits})
		}
		ds.rows = rows
		st.ResidualRows = len(rows)

		pivotOf = grow(&ds.pivotOf, nInactive)
		rows = rows[:eliminate(rows, pivotOf)]
		// Accept a pivot row only if full elimination reduced it to a
		// singleton on its column. When the system is rank-deficient a
		// pivot row can still carry bits of pivotless (free) columns;
		// its rhs is then x_j XOR x_free, and reading it off as x_j
		// would return corrupted data as a successful decode.
		unsolved = growZero(&ds.unsolved, maskWords)
		for j, p := range pivotOf {
			if p < 0 || !isUnit(rows[p].bits, j) {
				unsolved[j/64] |= 1 << (j % 64)
			}
		}
		// Only the message columns must be solved; an aux column the
		// solve leaves free is not needed.
		for ci := 0; ci < c.n; ci++ {
			if state[ci] == colInactive {
				j := inactiveIdx[ci]
				if unsolved[j/64]&(1<<(j%64)) != 0 {
					return nil, st, c.insufficientErr(st)
				}
				continue
			}
			for w, b := range colMask[ci] {
				if b&unsolved[w] != 0 {
					return nil, st, c.insufficientErr(st)
				}
			}
		}
	}
	if st.Peeled+st.Inactivated < c.nPrime {
		// Unreachable for well-formed equations (every column sits in an
		// outer-code equation); guards the loop's defensive break.
		return nil, st, c.insufficientErr(st)
	}

	// ---- Numeric solve: every byte lands once, in its slot. ----
	if dst == nil {
		dst = make([]byte, chunkLen)
	}
	full := chunkLen / bs // message columns wholly inside dst
	values := grow(&ds.values, (c.nPrime-full)*bs)
	col := grow(&ds.col, c.nPrime)
	for ci := range col {
		if ci < full {
			col[ci] = dst[ci*bs : (ci+1)*bs : (ci+1)*bs]
		} else {
			v := (ci - full) * bs
			col[ci] = values[v : v+bs : v+bs]
		}
	}
	// peeledSrcs lists e's value, when it has one, and the slots of its
	// peeled members other than skip: what a fold of e XORs together.
	srcs := ds.srcs[:0]
	peeledSrcs := func(e *equation, skip int) [][]byte {
		srcs = srcs[:0]
		if e.value != nil {
			srcs = append(srcs, e.value)
		}
		for _, mi := range e.idx {
			if mi != skip && state[mi] == colPeeled {
				srcs = append(srcs, col[mi])
			}
		}
		return srcs
	}
	// The replay, in peel order: with no inactivations this *is* plain BP.
	for _, ci := range peelOrder {
		xorBlocksSet(col[ci], peeledSrcs(&eqs[pivotEq[ci]], ci))
	}
	if nInactive > 0 {
		// Fold each pivot row into the slot of the column it solves and
		// eliminate again: the pivot rows alone span the system, and
		// they meet the same pivots in the same order, so each solved
		// inactive column ends in its own slot. Their bits are rebuilt
		// from the equations, since the first elimination reduced them.
		for j, p := range pivotOf {
			if p < 0 {
				continue
			}
			r := &rows[p]
			clear(r.bits)
			foldMask(r.bits, eqs[r.eq].idx, -1)
			r.rhs = col[inactiveCols[j]]
			xorBlocksSet(r.rhs, peeledSrcs(&eqs[r.eq], -1))
		}
		eliminate(rows, pivotOf)
		// Back-substitute the solved inactive columns into the message
		// blocks (only those; auxiliary values are not needed anymore).
		for ci := 0; ci < c.n; ci++ {
			if state[ci] != colPeeled {
				continue
			}
			srcs = srcs[:0]
			for w, bits := range colMask[ci] {
				for bits != 0 {
					j := w*64 + trailingZeros(bits)
					bits &= bits - 1
					srcs = append(srcs, col[inactiveCols[j]])
				}
			}
			xorBlocks(col[ci], srcs)
		}
	}
	ds.srcs = srcs
	if full < c.n {
		copy(dst[full*bs:], col[full]) // the partial tail column
	}
	return dst, st, nil
}

// eliminate runs Gauss-Jordan elimination over GF(2) on rows, carrying
// each row's rhs along with its bits when rows have one. It records in
// pivotOf the row each dense column pivots on (-1 when none does) and
// returns how many rows it pivoted on; those lead rows, in column
// order. Run again on just those rows, it takes the same pivots in the
// same order.
func eliminate(rows []gf2Row, pivotOf []int) int {
	next := 0
	for j := range pivotOf {
		pivotOf[j] = -1
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
		pr := &rows[next]
		for r := range rows {
			if r != next && rows[r].bits[w]&b != 0 {
				for k := range rows[r].bits {
					rows[r].bits[k] ^= pr.bits[k]
				}
				if pr.rhs != nil {
					xorInto(rows[r].rhs, pr.rhs)
				}
			}
		}
		pivotOf[j] = next
		next++
	}
	return next
}

// isZero reports whether no bit of m is set.
func isZero(m []uint64) bool {
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}

// isUnit reports whether bit j is the only bit of m set.
func isUnit(m []uint64, j int) bool {
	for w, b := range m {
		want := uint64(0)
		if w == j/64 {
			want = 1 << (j % 64)
		}
		if b != want {
			return false
		}
	}
	return true
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
	composite, aux := c.buildComposite(chunk, bs, tail, c.auxPlan.get(c.auxMembers, c.n))
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
