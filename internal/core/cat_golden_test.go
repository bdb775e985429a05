package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// goldenTables is the fixed set of tables whose Marshal bytes and Hash
// TestCATGolden pins: the Figure 3 sample, rows with and without a
// content sum, zero-sized retry rows (first, middle and last), offsets
// next to math.MaxInt64, a table of 1 000 rows, and the empty table.
func goldenTables() []*CAT {
	fig3 := sampleCAT()
	sums := &CAT{File: "sums", Rows: []CATRow{
		{Start: 0, End: 10, Sum: ChunkSum([]byte("0123456789"))},
		{Start: 10, End: 10},
		{Start: 10, End: 30, Sum: ChunkSum(make([]byte, 20))},
	}}
	retries := &CAT{File: "dir/retry_file.bin", Rows: []CATRow{
		{Start: 0, End: 0},
		{Start: 0, End: 0},
		{Start: 0, End: 1, Sum: 1},
		{Start: 1, End: 1},
		{Start: 1, End: 4096, Sum: 0xff},
		{Start: 4096, End: 4096},
	}}
	huge := &CAT{File: "huge", Rows: []CATRow{
		{Start: 0, End: math.MaxInt64 - 1, Sum: math.MaxUint64},
		{Start: math.MaxInt64 - 1, End: math.MaxInt64 - 1},
		{Start: math.MaxInt64 - 1, End: math.MaxInt64, Sum: 0x0123456789abcdef},
	}}
	thousand := &CAT{File: "thousand.dat"}
	rng := rand.New(rand.NewSource(30))
	var pos int64
	for i := 0; i < 1000; i++ {
		var n int64
		if rng.Intn(10) > 0 {
			n = 1 + rng.Int63n(16<<20)
		}
		row := CATRow{Start: pos, End: pos + n}
		if n > 0 && rng.Intn(4) > 0 {
			row.Sum = rng.Uint64() | 1
		}
		thousand.Rows = append(thousand.Rows, row)
		pos += n
	}
	return []*CAT{fig3, sums, retries, huge, thousand, {File: "empty"}}
}

// TestCATGolden pins the stored CAT format and its hash, which ETags and
// chunk-cache keys are made of. The values were recorded from the
// fmt-based codec this one replaced: a table must marshal to exactly
// these bytes and hash to exactly these values, built or parsed.
func TestCATGolden(t *testing.T) {
	golden := []struct {
		file   string
		size   int
		sha256 string
		hash   uint64
		text   string // the whole table, where it is short
	}{
		{"fig3", 124, "2d0637ad36dbb36c48750c2ca210791ed8987d3fe417dfc4ba8ff9cfebb7d87b", 0xf182d5ee34aadd2d,
			"(1) 0,5242880\n(2) 5242880,26083328\n(3) 26083328,52297728\n(4) 52297728,86114304\n(5) 86114304,86114304\n(6) 86114304,104856576\n"},
		{"sums", 63, "0b89723997ba6340d6904cfea7e16bc335273f035a2c5d003d41ac55bd8bd4bb", 0x6fc11ab284f3d15f,
			"(1) 0,10,3f5fc178a81867e7\n(2) 10,10\n(3) 10,30,5c41df61e8f6b241\n"},
		{"dir/retry_file.bin", 91, "39a2fd6b57dbce892498aecfc2f06b0620205f4a4a18c077dcb3c51f0bddbd71", 0x2047dee47f5f3849,
			"(1) 0,0\n(2) 0,0\n(3) 0,1,0000000000000001\n(4) 1,1\n(5) 1,4096,00000000000000ff\n(6) 4096,4096\n"},
		{"huge", 148, "15d9882d9254741a30ceeca9d28449f19e903dc8a78107e56a2abaad993371da", 0x4abf8792a936f3e7,
			"(1) 0,9223372036854775806,ffffffffffffffff\n(2) 9223372036854775806,9223372036854775806\n(3) 9223372036854775806,9223372036854775807,0123456789abcdef\n"},
		{"thousand.dat", 38769, "fc9608d5bbe04c4beacbb6409f8a43def7896536d2c167aff573693b9bff5231", 0x7f7c1ae0197f45a6, ""},
		{"empty", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0x0401d4c2913d4017, ""},
	}
	tables := goldenTables()
	if len(tables) != len(golden) {
		t.Fatalf("%d tables, %d golden rows", len(tables), len(golden))
	}
	for i, c := range tables {
		g := golden[i]
		if c.File != g.file {
			t.Fatalf("table %d is %q, golden row is %q", i, c.File, g.file)
		}
		b := c.Marshal()
		sum := sha256.Sum256(b)
		if len(b) != g.size || hex.EncodeToString(sum[:]) != g.sha256 {
			t.Errorf("%s: Marshal is %d bytes, sha256 %x; want %d bytes, sha256 %s", g.file, len(b), sum, g.size, g.sha256)
		}
		if g.text != "" && string(b) != g.text {
			t.Errorf("%s: Marshal = %q, want %q", g.file, b, g.text)
		}
		if h := c.Hash(); h != g.hash {
			t.Errorf("%s: Hash of the built table = %016x, want %016x", g.file, h, g.hash)
		}
		parsed, err := UnmarshalCAT(g.file, b)
		if err != nil {
			t.Errorf("%s: %v", g.file, err)
			continue
		}
		if h := parsed.Hash(); h != g.hash {
			t.Errorf("%s: Hash of the parsed table = %016x, want %016x", g.file, h, g.hash)
		}
		if string(parsed.Marshal()) != string(b) {
			t.Errorf("%s: the parsed table marshals to other bytes", g.file)
		}
	}
}

// FuzzUnmarshalCAT: a CAT arrives from a peer, so the parser must never
// panic on hostile bytes; any input it accepts must be exactly the
// Marshal form of what it parsed, hashing as that table built by hand
// does; and any valid table, here one cut from the input's bytes, must
// come back from Unmarshal(Marshal(c)) equal to c.
func FuzzUnmarshalCAT(f *testing.F) {
	for _, c := range goldenTables()[:4] {
		f.Add(c.Marshal())
	}
	f.Add([]byte(nil))
	f.Add([]byte("(1) 0,10\n(2) 10,10\n"))
	f.Add([]byte("(1) 0,10,0000000000000000\n"))
	f.Add([]byte("(1) 00,10\n"))
	f.Add([]byte("(1) 0,10"))
	f.Add([]byte("(1) 0,9223372036854775808\n"))
	f.Add([]byte("(1) 0,5,ABCDEF0123456789\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := UnmarshalCAT("f", data); err == nil {
			if got := c.Marshal(); string(got) != string(data) {
				t.Fatalf("accepted %q, which marshals back as %q", data, got)
			}
			built := &CAT{File: "f", Rows: append([]CATRow(nil), c.Rows...)}
			if c.Hash() != built.Hash() {
				t.Fatalf("%q: parsed hash %016x, built hash %016x", data, c.Hash(), built.Hash())
			}
		}

		// A valid table cut from the input: each 9 bytes are a row, its
		// length from the first 4 (a zero-sized retry row when the
		// fifth is 0) and its sum from the last 4, possibly none.
		c := &CAT{File: "g"}
		var pos int64
		for b := data; len(b) >= 9; b = b[9:] {
			n := int64(binary.LittleEndian.Uint32(b))
			if b[4] == 0 {
				n = 0
			}
			row := CATRow{Start: pos, End: pos + n}
			if n > 0 {
				row.Sum = uint64(binary.LittleEndian.Uint32(b[5:])) << 20
			}
			c.Rows = append(c.Rows, row)
			pos += n
		}
		rt, err := UnmarshalCAT("g", c.Marshal())
		if err != nil {
			t.Fatalf("valid table %v refused: %v", c.Rows, err)
		}
		if !reflect.DeepEqual(rt.Rows, c.Rows) || rt.Hash() != c.Hash() {
			t.Fatalf("round trip of %v gave %v", c.Rows, rt.Rows)
		}
	})
}
