// Command apicheck is the public-API compatibility gate: it extracts
// the exported surface of a Go package (every exported const, var,
// type, exported struct field, interface method, function, and method
// with its full signature) as a sorted, normalized text form and
// compares it against a checked-in baseline.
//
//	apicheck -dir . -baseline api/peerstripe.txt        # gate (CI)
//	apicheck -dir . -baseline api/peerstripe.txt -write # accept changes
//
// Any drift fails the gate with a line diff. That makes an
// incompatible change impossible to ship silently: the committer must
// regenerate the baseline (-write) — a reviewable diff — and note the
// change in CHANGES.md. The extractor is deliberately dependency-free
// (go/ast + go/printer only) so the gate runs anywhere the toolchain
// does.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	var (
		dir      = flag.String("dir", ".", "package directory to extract")
		baseline = flag.String("baseline", "api/peerstripe.txt", "baseline surface file")
		write    = flag.Bool("write", false, "rewrite the baseline instead of checking")
	)
	flag.Parse()

	surface, err := extract(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apicheck:", err)
		os.Exit(1)
	}
	current := strings.Join(surface, "\n") + "\n"

	if *write {
		if err := os.WriteFile(*baseline, []byte(current), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "apicheck:", err)
			os.Exit(1)
		}
		fmt.Printf("apicheck: wrote %s (%d declarations)\n", *baseline, len(surface))
		return
	}

	want, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apicheck: no baseline %s (%v)\nRun `go run ./cmd/apicheck -write` to create it.\n", *baseline, err)
		os.Exit(1)
	}
	if string(want) == current {
		fmt.Printf("apicheck: %s matches the exported surface (%d declarations)\n", *baseline, len(surface))
		return
	}

	fmt.Fprintf(os.Stderr, "apicheck: public API surface drifted from %s\n\n", *baseline)
	printDiff(os.Stderr, strings.Split(strings.TrimRight(string(want), "\n"), "\n"), surface)
	fmt.Fprintf(os.Stderr, "\nIf the change is intentional, regenerate the baseline with\n"+
		"`go run ./cmd/apicheck -write -baseline %s` and describe the API\nchange in CHANGES.md in the same commit.\n", *baseline)
	os.Exit(1)
}

// printDiff emits a minimal line diff: baseline-only lines as '-',
// surface-only lines as '+'.
func printDiff(w io.Writer, want, got []string) {
	inWant := make(map[string]bool, len(want))
	for _, l := range want {
		inWant[l] = true
	}
	inGot := make(map[string]bool, len(got))
	for _, l := range got {
		inGot[l] = true
	}
	for _, l := range want {
		if !inGot[l] {
			fmt.Fprintf(w, "- %s\n", l)
		}
	}
	for _, l := range got {
		if !inWant[l] {
			fmt.Fprintf(w, "+ %s\n", l)
		}
	}
}

// extract parses the package in dir (tests excluded) and returns its
// exported surface as sorted normalized declaration lines.
func extract(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var pkg *ast.Package
	for name, p := range pkgs {
		if !strings.HasSuffix(name, "_test") && name != "main" {
			pkg = p
		}
	}
	if pkg == nil {
		return nil, fmt.Errorf("no library package in %s", dir)
	}

	var lines []string
	// Iterate files in name order for determinism (map order varies).
	var names []string
	for fn := range pkg.Files {
		names = append(names, fn)
	}
	sort.Strings(names)
	for _, fn := range names {
		for _, decl := range pkg.Files[fn].Decls {
			lines = append(lines, declLines(fset, pkg.Name, decl)...)
		}
	}
	sort.Strings(lines)
	return dedupe(lines), nil
}

func dedupe(in []string) []string {
	out := in[:0]
	var prev string
	for i, l := range in {
		if i == 0 || l != prev {
			out = append(out, l)
		}
		prev = l
	}
	return out
}

// declLines renders one top-level declaration's exported parts.
func declLines(fset *token.FileSet, pkg string, decl ast.Decl) []string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		kind, recv := "func", ""
		if d.Recv != nil && len(d.Recv.List) > 0 {
			rt := typeName(d.Recv.List[0].Type)
			if !ast.IsExported(strings.TrimPrefix(rt, "*")) {
				return nil
			}
			kind, recv = "method", "("+rt+") "
		}
		sig := strings.TrimPrefix(render(fset, stripFuncType(d.Type)), "func")
		return []string{fmt.Sprintf("%s: %s %s%s%s", pkg, kind, recv, d.Name.Name, sig)}
	case *ast.GenDecl:
		var out []string
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				filtered := filterType(s.Type)
				out = append(out, fmt.Sprintf("%s: type %s %s", pkg, s.Name.Name, render(fset, filtered)))
			case *ast.ValueSpec:
				kind := "var"
				if d.Tok == token.CONST {
					kind = "const"
				}
				for i, name := range s.Names {
					if !name.IsExported() {
						continue
					}
					line := fmt.Sprintf("%s: %s %s", pkg, kind, name.Name)
					if s.Type != nil {
						line += " " + render(fset, s.Type)
					}
					if i < len(s.Values) {
						line += " = " + render(fset, s.Values[i])
					}
					out = append(out, line)
				}
			}
		}
		return out
	}
	return nil
}

// stripFuncType drops parameter names, keeping only the types — a
// rename is not an API change.
func stripFuncType(ft *ast.FuncType) *ast.FuncType {
	cp := *ft
	cp.Params = stripFieldNames(ft.Params)
	cp.Results = stripFieldNames(ft.Results)
	return &cp
}

func stripFieldNames(fl *ast.FieldList) *ast.FieldList {
	if fl == nil {
		return nil
	}
	out := &ast.FieldList{}
	for _, f := range fl.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			out.List = append(out.List, &ast.Field{Type: f.Type})
		}
	}
	return out
}

// filterType removes unexported members from struct and interface
// types; other type expressions pass through.
func filterType(t ast.Expr) ast.Expr {
	switch tt := t.(type) {
	case *ast.StructType:
		cp := *tt
		cp.Fields = &ast.FieldList{}
		for _, f := range tt.Fields.List {
			if len(f.Names) == 0 { // embedded
				if ast.IsExported(strings.TrimPrefix(typeName(f.Type), "*")) {
					cp.Fields.List = append(cp.Fields.List, &ast.Field{Type: f.Type})
				}
				continue
			}
			var kept []*ast.Ident
			for _, n := range f.Names {
				if n.IsExported() {
					kept = append(kept, ast.NewIdent(n.Name))
				}
			}
			if len(kept) > 0 {
				cp.Fields.List = append(cp.Fields.List, &ast.Field{Names: kept, Type: f.Type})
			}
		}
		return &cp
	case *ast.InterfaceType:
		cp := *tt
		cp.Methods = &ast.FieldList{}
		for _, m := range tt.Methods.List {
			if len(m.Names) == 0 || m.Names[0].IsExported() {
				cp.Methods.List = append(cp.Methods.List, m)
			}
		}
		return &cp
	case *ast.FuncType:
		return stripFuncType(tt)
	}
	return t
}

// typeName returns the bare name of a (possibly pointered) type expr.
func typeName(t ast.Expr) string {
	switch tt := t.(type) {
	case *ast.Ident:
		return tt.Name
	case *ast.StarExpr:
		return "*" + typeName(tt.X)
	case *ast.IndexExpr: // generic receiver
		return typeName(tt.X)
	case *ast.SelectorExpr:
		return typeName(tt.X) + "." + tt.Sel.Name
	}
	return ""
}

// render prints a node and collapses it to one whitespace-normalized
// line, so formatting churn cannot fail the gate.
func render(fset *token.FileSet, node any) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, node); err != nil {
		return fmt.Sprintf("<unprintable: %v>", err)
	}
	return strings.Join(strings.Fields(buf.String()), " ")
}
