package main

import (
	"go/build"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFixture(t *testing.T, dir, name, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestExtractSurface(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "lib.go", `package lib

import "time"

// Exported surface.
const Answer = 42

var Default = time.Second

type Public struct {
	Visible int
	hidden  string
}

type secret struct{ X int }

func Do(a int, b string) (bool, error) { return false, nil }

func (p *Public) Method(d time.Duration) {}

func (s *secret) Hidden() {}

func internal() {}
`)
	writeFixture(t, dir, "lib_test.go", `package lib

func TestOnly() {} // must not appear: test file
`)

	lines, err := extract(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(lines, "\n")
	for _, w := range []string{
		"lib: const Answer = 42",
		"lib: var Default = time.Second",
		"lib: type Public struct { Visible int }",
		"lib: func Do(int, string) (bool, error)",
		"lib: method (*Public) Method(time.Duration)",
	} {
		if !strings.Contains(got, w) {
			t.Errorf("surface lacks %q:\n%s", w, got)
		}
	}
	for _, banned := range []string{"hidden", "secret", "internal", "TestOnly"} {
		if strings.Contains(got, banned) {
			t.Errorf("surface leaks unexported %q:\n%s", banned, got)
		}
	}
}

// TestExtractStableAcrossParamRenames pins the normalization contract:
// renaming a parameter is not an API change.
func TestExtractStableAcrossParamRenames(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	writeFixture(t, a, "l.go", "package lib\nfunc F(x int, y []byte) error { return nil }\n")
	writeFixture(t, b, "l.go", "package lib\nfunc F(renamed int, alsoRenamed []byte) error { return nil }\n")
	la, err := extract(a)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := extract(b)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(la, "\n") != strings.Join(lb, "\n") {
		t.Fatalf("param rename changed the surface:\n%v\nvs\n%v", la, lb)
	}
}

// TestBaselineMatchesTree runs the gate over the repository's own
// peerstripe package: a change to the exported surface that did not
// regenerate api/peerstripe.txt fails the ordinary test run.
func TestBaselineMatchesTree(t *testing.T) {
	surface, err := extract("../..")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../api/peerstripe.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != strings.Join(surface, "\n")+"\n" {
		var diff strings.Builder
		printDiff(&diff, strings.Split(strings.TrimRight(string(want), "\n"), "\n"), surface)
		t.Fatalf("exported surface drifted from api/peerstripe.txt; regenerate with `go run ./cmd/apicheck -write`:\n%s", diff.String())
	}
}

// TestLiveCodeLinksNoReproduction walks the in-module imports of the
// live binaries, the gateway and the public package, and fails if any
// of them reaches a package that exists only to reproduce the paper's
// simulations and case study: the simulator (with its store), the
// overlay, the grid case study, the baselines, multicast and the
// trace generator.
func TestLiveCodeLinksNoReproduction(t *testing.T) {
	const module = "peerstripe"
	banned := map[string]bool{}
	for _, p := range []string{"sim", "pastry", "grid", "baseline", "multicast", "trace"} {
		banned[module+"/internal/"+p] = true
	}
	// from records how the walk first reached each package, for the
	// import chain a failure prints.
	from := map[string]string{}
	var walk func(path string)
	walk = func(path string) {
		pkg, err := build.ImportDir(filepath.Join("../..", strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if imp != module && !strings.HasPrefix(imp, module+"/") {
				continue
			}
			if _, ok := from[imp]; ok {
				continue
			}
			from[imp] = path
			if banned[imp] {
				chain := imp
				for p := path; p != ""; p = from[p] {
					chain = p + " -> " + chain
				}
				t.Errorf("live code links reproduction package %s: %s", imp, chain)
				continue
			}
			walk(imp)
		}
	}
	for _, root := range []string{"cmd/psnode", "cmd/psgate", "cmd/psput", "gateway", ""} {
		path := strings.TrimSuffix(module+"/"+root, "/")
		from[path] = ""
		walk(path)
	}
}
