package ids

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromNameDeterministic(t *testing.T) {
	a := FromName("testImageFile_2")
	b := FromName("testImageFile_2")
	if a != b {
		t.Fatalf("FromName not deterministic: %s vs %s", a, b)
	}
	c := FromName("testImageFile_3")
	if a == c {
		t.Fatalf("distinct names hashed to same ID %s", a)
	}
}

func TestParseRoundTrip(t *testing.T) {
	id := FromName("hello")
	got, err := Parse(id.String())
	if err != nil {
		t.Fatalf("Parse(%q): %v", id.String(), err)
	}
	if got != id {
		t.Fatalf("round trip mismatch: %s vs %s", got, id)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("zz"); err == nil {
		t.Error("Parse accepted non-hex input")
	}
	if _, err := Parse("abcd"); err == nil {
		t.Error("Parse accepted short input")
	}
}

func TestCmp(t *testing.T) {
	a := FromUint64(5)
	b := FromUint64(9)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Fatalf("Cmp ordering wrong: a=%s b=%s", a, b)
	}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("Less inconsistent with Cmp")
	}
}

func TestDigit(t *testing.T) {
	var id ID
	id[0] = 0xAB
	id[1] = 0xCD
	want := []int{0xA, 0xB, 0xC, 0xD}
	for i, w := range want {
		if got := id.Digit(i); got != w {
			t.Errorf("Digit(%d) = %x, want %x", i, got, w)
		}
	}
}

func TestCommonPrefixLen(t *testing.T) {
	a, err := Parse("ab10000000000000000000000000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("ab1f000000000000000000000000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	if got := a.CommonPrefixLen(b); got != 3 {
		t.Fatalf("CommonPrefixLen = %d, want 3", got)
	}
	if got := a.CommonPrefixLen(a); got != Digits {
		t.Fatalf("self prefix = %d, want %d", got, Digits)
	}
}

func TestAddSubIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b := Random(rng), Random(rng)
		if got := a.Add(b).Sub(b); got != a {
			t.Fatalf("(a+b)-b != a for a=%s b=%s", a, b)
		}
	}
}

func TestSubWraparound(t *testing.T) {
	a := FromUint64(1)
	b := FromUint64(2)
	d := a.Sub(b) // -1 mod 2^160 = all 0xff
	for _, x := range d {
		if x != 0xff {
			t.Fatalf("1-2 mod 2^160 = %s, want all ff", d)
		}
	}
}

func TestDistSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a, b := Random(rng), Random(rng)
		if a.Dist(b) != b.Dist(a) {
			t.Fatalf("Dist asymmetric for %s, %s", a, b)
		}
	}
}

func TestDistSmall(t *testing.T) {
	a := FromUint64(10)
	b := FromUint64(13)
	if got := a.Dist(b); got != FromUint64(3) {
		t.Fatalf("Dist = %s, want 3", got)
	}
	// distance across the wraparound point
	var maxID ID
	for i := range maxID {
		maxID[i] = 0xff
	}
	zero := FromUint64(0)
	if got := maxID.Dist(zero); got != FromUint64(1) {
		t.Fatalf("wraparound Dist = %s, want 1", got)
	}
}

func TestBetween(t *testing.T) {
	a, b := FromUint64(10), FromUint64(20)
	cases := []struct {
		x    uint64
		want bool
	}{
		{10, false}, // exclusive at a
		{11, true},
		{20, true}, // inclusive at b
		{21, false},
		{5, false},
	}
	for _, c := range cases {
		if got := Between(FromUint64(c.x), a, b); got != c.want {
			t.Errorf("Between(%d, 10, 20] = %v, want %v", c.x, got, c.want)
		}
	}
	// wraparound arc (20, 10]
	for _, c := range []struct {
		x    uint64
		want bool
	}{{25, true}, {5, true}, {10, true}, {15, false}, {20, false}} {
		if got := Between(FromUint64(c.x), b, a); got != c.want {
			t.Errorf("Between(%d, 20, 10] = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestBetweenFullRing(t *testing.T) {
	a := FromUint64(7)
	if !Between(FromUint64(3), a, a) {
		t.Error("degenerate arc (a, a] should cover the ring")
	}
}

// Property: for random x, a, b exactly one of "x in (a,b]" or
// "x in (b,a]" holds, unless x equals one of the endpoints or a == b.
func TestBetweenPartitionProperty(t *testing.T) {
	f := func(xs, as, bs string) bool {
		x, a, b := FromName(xs), FromName(as), FromName(bs)
		if a == b || x == a || x == b {
			return true
		}
		return Between(x, a, b) != Between(x, b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Add is commutative and Sub inverts it.
func TestAddCommutativeProperty(t *testing.T) {
	f := func(as, bs string) bool {
		a, b := FromName(as), FromName(bs)
		return a.Add(b) == b.Add(a) && a.Add(b).Sub(a) == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIsZero(t *testing.T) {
	var z ID
	if !z.IsZero() {
		t.Error("zero ID not recognised")
	}
	if FromUint64(1).IsZero() {
		t.Error("nonzero ID reported zero")
	}
}

func TestShortAndString(t *testing.T) {
	id := FromName("x")
	if len(id.String()) != 40 {
		t.Errorf("String length = %d, want 40", len(id.String()))
	}
	if len(id.Short()) != 8 {
		t.Errorf("Short length = %d, want 8", len(id.Short()))
	}
}

func BenchmarkFromName(b *testing.B) {
	for b.Loop() {
		FromName("fileName_27_13")
	}
}

func BenchmarkDist(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x, y := Random(rng), Random(rng)
	for b.Loop() {
		_ = x.Dist(y)
	}
}
