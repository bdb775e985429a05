package gateway

import (
	"fmt"
	"testing"
)

// FuzzParseRange drives the Range header parser — the one piece of the
// gateway that reads attacker-controlled text to pick file offsets —
// with arbitrary headers and with the three well-formed shapes built
// from fuzzed numbers: it never panics, whatever it calls satisfiable
// lies inside the object, and the well-formed shapes agree with the
// RFC 9110 arithmetic written out longhand.
func FuzzParseRange(f *testing.F) {
	f.Add("bytes=0-99", int64(0), int64(99), int64(1000))
	f.Add("bytes=-5", int64(5), int64(0), int64(3))
	f.Add("bytes=7-", int64(7), int64(7), int64(7))
	f.Add("bytes=9223372036854775807-", int64(1)<<62, int64(1)<<62, int64(1)<<62)
	f.Add("bytes= 1 - 2", int64(0), int64(0), int64(0))
	f.Add("bytes=0-1,5-6", int64(2), int64(1), int64(10))
	f.Add("chapters=1-2", int64(0), int64(0), int64(1))
	f.Fuzz(func(t *testing.T, spec string, a, b, size int64) {
		if size < 0 {
			return
		}
		inside := func(what string, off, length int64, ok, satisfiable bool) {
			if satisfiable && !ok {
				t.Fatalf("%s of %d: satisfiable but not ok", what, size)
			}
			if satisfiable && (off < 0 || length <= 0 || off+length > size || off+length < off) {
				t.Fatalf("%s of %d: satisfiable range [%d,+%d) outside the object", what, size, off, length)
			}
		}
		off, length, ok, satisfiable := parseRange(spec, size)
		inside(fmt.Sprintf("%q", spec), off, length, ok, satisfiable)

		if a < 0 || b < 0 {
			return
		}
		check := func(spec string, wantOff, wantLen int64, wantSat bool) {
			off, length, ok, satisfiable := parseRange(spec, size)
			inside(spec, off, length, ok, satisfiable)
			if !ok || satisfiable != wantSat || (wantSat && (off != wantOff || length != wantLen)) {
				t.Fatalf("%s of %d = (%d, %d, %v, %v), want (%d, %d, true, %v)",
					spec, size, off, length, ok, satisfiable, wantOff, wantLen, wantSat)
			}
		}
		// Suffix: the final a bytes, all of the object when a is more.
		check(fmt.Sprintf("bytes=-%d", a), max(size-a, 0), min(a, size), a > 0 && size > 0)
		// Open-ended: from a to the end.
		check(fmt.Sprintf("bytes=%d-", a), a, size-a, a < size)
		// Closed: a through b inclusive, clipped to the end; b before a
		// is malformed and ignored.
		if b >= a {
			check(fmt.Sprintf("bytes=%d-%d", a, b), a, min(b, size-1)-a+1, a < size)
		} else if _, _, ok, _ := parseRange(fmt.Sprintf("bytes=%d-%d", a, b), size); ok {
			t.Fatalf("bytes=%d-%d accepted", a, b)
		}
	})
}
