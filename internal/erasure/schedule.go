package erasure

import "math/rand"

// Schedule decides which composite blocks a check block is composed of.
// The inner code's degree distribution is fixed by ε; the schedule only
// chooses *which* d members a check block XORs together. The choice
// changes how belief propagation behaves at low surplus: the uniform
// schedule of Maymounkov's construction stalls with noticeable
// probability at the paper's 2% stored surplus (finite-size effect at
// n = 4096), forcing the decoder onto its ML fallback. The banded
// schedule draws members from a few windows that sweep the composite
// message deterministically, concentrating each check block's coverage
// so the peeling wavefront keeps moving.
//
// Schedules are deterministic given (seed, block index): encoder and
// decoder derive identical compositions from the index alone, exactly
// as with the uniform schedule, so nothing changes on the wire.
//
// A block set decodes only under the schedule it was encoded with, and
// nothing stored records which one that was. So there are exactly two:
// Uniform, the OnlineOpts default and the paper's construction, and
// Banded, which the live data path encodes with (core.CodeFor). The
// interface is satisfied only inside this package (members is
// unexported): compositions must be distinct-index sets drawn from the
// supplied rng in a reproducible order.
type Schedule interface {
	// Name identifies the schedule ("uniform" or "banded25x4").
	Name() string
	// members returns the d distinct composite indices (in [0, nPrime))
	// of check block i, consuming randomness only from rng.
	members(rng *rand.Rand, i, d, nPrime int) []int
}

// Uniform returns the default schedule: every check block draws its
// members uniformly at random over all n' composite blocks. This is
// the construction of the paper's §2.2 reference [27]; its output is
// bit-identical to what the package produced before schedules existed.
func Uniform() Schedule { return uniformSchedule{} }

type uniformSchedule struct{}

func (uniformSchedule) Name() string { return "uniform" }

// members draws d distinct indices uniformly over [0, nPrime). The
// draw sequence (rng.Intn(nPrime) with duplicates rejected) is frozen:
// it must keep matching the pre-schedule implementation so that stored
// blocks encoded by older builds remain decodable and the default
// encoding stays byte-identical for a fixed seed.
func (uniformSchedule) members(rng *rand.Rand, _, d, nPrime int) []int {
	seen := make(map[int]struct{}, d)
	out := make([]int, 0, d)
	for len(out) < d {
		v := rng.Intn(nPrime)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// Banded returns the structured schedule the live data path encodes
// with: each check block draws its members from 4 equally spaced
// windows that together cover ~25% of the n' composite blocks. Each
// band is a contiguous run, so members stay address-clustered, while
// the bands span the whole composite message, so coverage stays wide
// enough for belief propagation. Band starts advance by a golden-ratio
// stride, so consecutive check blocks interleave. At the 2% decode
// surplus it beats Uniform on both BP completion rate and decode
// throughput (docs/PERF.md, "Banded default schedule").
func Banded() Schedule { return bandedSchedule{} }

type bandedSchedule struct{}

// The banded shape: bandCount windows jointly covering bandCoverage of
// the composite message.
const (
	bandCoverage = 0.25
	bandCount    = 4
)

func (bandedSchedule) Name() string { return "banded25x4" }

// minWindow floors the band width in absolute terms: bands of a few
// dozen blocks or less make the inner code's coverage so narrow that
// the received equations go rank-deficient at small n'. Below
// ~bandCount·minWindow composite blocks the schedule degenerates to one
// full-width window, which is the right behavior: structure only pays
// at paper-scale n.
const minWindow = 32

// members draws d distinct indices from the bands of check block i. The
// draw sequence is frozen: it is what every online-coded block stored
// by the live data path was encoded with.
func (bandedSchedule) members(rng *rand.Rand, i, d, nPrime int) []int {
	bands := bandCount
	bw := int(bandCoverage*float64(nPrime)/float64(bands) + 0.5)
	if bw < minWindow {
		bw = minWindow
	}
	if bands*bw < d {
		bw = (d + bands - 1) / bands // bands must jointly hold d members
	}
	if bands*bw >= nPrime {
		// Coverage saturates the composite message; degenerate to one
		// full-width window.
		bands, bw = 1, nPrime
	}
	spacing := nPrime / bands // ≥ bw, so bands never overlap
	start := (i * interleaveStride(nPrime)) % nPrime
	seen := make(map[int]struct{}, d)
	out := make([]int, 0, d)
	for len(out) < d {
		r := rng.Intn(bands * bw)
		v := (start + (r/bw)*spacing + r%bw) % nPrime
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// interleaveStride returns the band-start advance per check block: the
// integer closest to n'/φ that is coprime to n', so the start positions
// of any m consecutive check blocks are spread over the whole composite
// message (a golden-ratio low-discrepancy sequence).
func interleaveStride(nPrime int) int {
	if nPrime <= 1 {
		return 1
	}
	s := int(float64(nPrime)*0.6180339887498949 + 0.5)
	if s < 1 {
		s = 1
	}
	for gcd(s, nPrime) != 1 {
		s--
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Schedules returns both schedules, for the tests, the fuzzers and the
// psbench schedule comparison to sweep.
func Schedules() []Schedule { return []Schedule{Uniform(), Banded()} }
