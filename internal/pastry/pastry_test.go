package pastry

import (
	"math/rand"
	"testing"
	"testing/quick"

	"peerstripe/internal/ids"
)

func newNet(t testing.TB, n int, seed int64) *Network {
	t.Helper()
	net := NewNetwork(seed)
	net.JoinRandom(n)
	return net
}

func TestJoinAndSize(t *testing.T) {
	net := newNet(t, 100, 1)
	if net.Size() != 100 {
		t.Fatalf("Size = %d, want 100", net.Size())
	}
}

func TestJoinDuplicateRejected(t *testing.T) {
	net := NewNetwork(1)
	id := ids.FromName("n1")
	if _, err := net.Join(id); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Join(id); err == nil {
		t.Fatal("duplicate join accepted")
	}
}

func TestRingSorted(t *testing.T) {
	net := newNet(t, 500, 2)
	ring := net.Nodes()
	for i := 1; i < len(ring); i++ {
		if !ring[i-1].ID.Less(ring[i].ID) {
			t.Fatalf("ring out of order at %d", i)
		}
	}
}

func TestOwnerIsNumericallyClosest(t *testing.T) {
	net := newNet(t, 200, 3)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		key := ids.Random(rng)
		owner := net.Owner(key)
		// brute force
		var best *Node
		for _, n := range net.Nodes() {
			if best == nil || key.Dist(n.ID).Cmp(key.Dist(best.ID)) < 0 {
				best = n
			}
		}
		if owner.ID != best.ID {
			t.Fatalf("Owner(%s) = %s, brute force says %s", key.Short(), owner.ID.Short(), best.ID.Short())
		}
	}
}

func TestRouteDeliversToOwner(t *testing.T) {
	net := newNet(t, 1000, 5)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		key := ids.Random(rng)
		dst, hops := net.Route(key)
		if dst == nil {
			t.Fatal("Route returned nil")
		}
		if dst.ID != net.Owner(key).ID {
			t.Fatalf("Route delivered to %s, owner is %s", dst.ID.Short(), net.Owner(key).ID.Short())
		}
		if hops < 0 || hops >= 128 {
			t.Fatalf("hops = %d out of range", hops)
		}
	}
}

func TestRouteHopsLogarithmic(t *testing.T) {
	// Pastry routes in O(log_16 N) hops; for N=2000 that is ~3, so the
	// mean must stay well below naive linear search.
	net := newNet(t, 2000, 7)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		net.Route(ids.Random(rng))
	}
	if m := net.Hops.Mean(); m > 8 {
		t.Fatalf("mean hops = %.2f, want <= 8 for 2000 nodes", m)
	}
	if net.Hops.Max >= 64 {
		t.Fatalf("max hops = %d, suspicious", net.Hops.Max)
	}
}

func TestRouteFromSelf(t *testing.T) {
	net := newNet(t, 50, 9)
	n := net.Nodes()[0]
	dst, hops := net.RouteFrom(n, n.ID)
	if dst.ID != n.ID {
		t.Fatalf("routing own ID delivered elsewhere: %s", dst.ID.Short())
	}
	if hops != 0 {
		t.Fatalf("routing own ID took %d hops", hops)
	}
}

func TestFailRemapsKeys(t *testing.T) {
	net := newNet(t, 300, 10)
	rng := rand.New(rand.NewSource(11))
	key := ids.Random(rng)
	owner := net.Owner(key)
	// The failed owner's keys must remap to a ring neighbor.
	neighbors := net.Neighbors(owner.ID, 2)
	if !net.Fail(owner.ID) {
		t.Fatal("Fail returned false")
	}
	newOwner := net.Owner(key)
	if newOwner.ID == owner.ID {
		t.Fatal("failed node still owns key")
	}
	found := false
	for _, nb := range neighbors {
		if nb.ID == newOwner.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("key remapped to %s, not an immediate neighbor", newOwner.ID.Short())
	}
	// Routing still works after the failure (lazy table repair).
	dst, _ := net.Route(key)
	if dst.ID != newOwner.ID {
		t.Fatalf("post-failure route delivered to %s, want %s", dst.ID.Short(), newOwner.ID.Short())
	}
}

func TestFailUnknownNode(t *testing.T) {
	net := newNet(t, 10, 12)
	if net.Fail(ids.FromName("never-joined")) {
		t.Fatal("Fail on unknown node returned true")
	}
}

func TestMassFailureRoutingSurvives(t *testing.T) {
	net := newNet(t, 500, 13)
	rng := rand.New(rand.NewSource(14))
	// Fail 40% of nodes.
	nodes := append([]*Node{}, net.Nodes()...)
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	for _, n := range nodes[:200] {
		net.Fail(n.ID)
	}
	if net.Size() != 300 {
		t.Fatalf("Size = %d after failures", net.Size())
	}
	for i := 0; i < 100; i++ {
		key := ids.Random(rng)
		dst, _ := net.Route(key)
		if dst.ID != net.Owner(key).ID {
			t.Fatal("route misdelivered after mass failure")
		}
		if !dst.Alive() {
			t.Fatal("route delivered to dead node")
		}
	}
}

func TestNeighborsSymmetricCount(t *testing.T) {
	net := newNet(t, 100, 15)
	n := net.Nodes()[42]
	nb := net.Neighbors(n.ID, 16)
	if len(nb) != 16 {
		t.Fatalf("got %d neighbors, want 16", len(nb))
	}
	for _, x := range nb {
		if x.ID == n.ID {
			t.Fatal("node is its own neighbor")
		}
	}
}

func TestNeighborsSmallRing(t *testing.T) {
	net := newNet(t, 3, 16)
	n := net.Nodes()[0]
	nb := net.Neighbors(n.ID, 16)
	if len(nb) != 2 {
		t.Fatalf("got %d neighbors on 3-node ring, want 2", len(nb))
	}
}

func TestLeafSet(t *testing.T) {
	net := newNet(t, 64, 17)
	n := net.Nodes()[10]
	ls := n.LeafSet()
	if len(ls) != DefaultLeafSize {
		t.Fatalf("leaf set size = %d, want %d", len(ls), DefaultLeafSize)
	}
}

func TestPrefixRange(t *testing.T) {
	id := ids.FromName("x")
	for _, tc := range []struct{ p, d int }{{0, 5}, {1, 0xA}, {2, 0}, {3, 0xF}, {7, 3}} {
		lo, hi := prefixRange(id, tc.p, tc.d)
		if lo.Cmp(hi) > 0 {
			t.Fatalf("p=%d d=%d: lo > hi", tc.p, tc.d)
		}
		// lo and hi share the first p digits with id and have digit d
		// at position p.
		for i := 0; i < tc.p; i++ {
			if lo.Digit(i) != id.Digit(i) || hi.Digit(i) != id.Digit(i) {
				t.Fatalf("p=%d d=%d: prefix digit %d not preserved", tc.p, tc.d, i)
			}
		}
		if lo.Digit(tc.p) != tc.d || hi.Digit(tc.p) != tc.d {
			t.Fatalf("p=%d d=%d: digit at p wrong", tc.p, tc.d)
		}
	}
}

// Property: every ID inside prefixRange(id, p, d) shares p digits with
// id and has digit d at position p; boundary IDs included.
func TestPrefixRangeProperty(t *testing.T) {
	f := func(name string, p8, d8 uint8) bool {
		id := ids.FromName(name)
		p := int(p8) % 10
		d := int(d8) % 16
		lo, hi := prefixRange(id, p, d)
		okLo := lo.Digit(p) == d && lo.CommonPrefixLen(id) >= p
		okHi := hi.Digit(p) == d && hi.CommonPrefixLen(id) >= p
		return okLo && okHi && lo.Cmp(hi) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestCoordDistance(t *testing.T) {
	a := Coord{0, 0}
	b := Coord{3, 4}
	if d := a.DistanceTo(b); d != 5 {
		t.Fatalf("distance = %g, want 5", d)
	}
	if a.DistanceTo(a) != 0 {
		t.Fatal("self-distance nonzero")
	}
}

func TestRouteEmptyNetwork(t *testing.T) {
	net := NewNetwork(18)
	if dst, _ := net.Route(ids.FromName("k")); dst != nil {
		t.Fatal("route on empty network returned a node")
	}
	if net.Owner(ids.FromName("k")) != nil {
		t.Fatal("owner on empty network returned a node")
	}
}

func TestDeterministicTopology(t *testing.T) {
	a := newNet(t, 50, 99)
	b := newNet(t, 50, 99)
	for i, n := range a.Nodes() {
		if b.Nodes()[i].ID != n.ID {
			t.Fatal("same seed produced different topologies")
		}
	}
}

func BenchmarkRoute10k(b *testing.B) {
	net := NewNetwork(1)
	net.JoinRandom(10000)
	rng := rand.New(rand.NewSource(2))
	keys := make([]ids.ID, 1024)
	for i := range keys {
		keys[i] = ids.Random(rng)
	}
	for i := 0; b.Loop(); i++ {
		net.Route(keys[i%len(keys)])
	}
}

func BenchmarkJoin(b *testing.B) {
	net := NewNetwork(3)
	net.JoinRandom(1000)
	for b.Loop() {
		net.JoinRandom(1)
	}
}
