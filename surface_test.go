package pase_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestSurface is the gate on unused surface and untested packages. It
// fails when an exported identifier declared in a non-test file under
// internal/ is referenced by name from no non-test file of the module
// (bench/ included), and when a package directory under internal/ or
// cmd/ has no _test.go file. Exceptions live in
// testdata/surface_allow.txt, one "key reason" line each; an entry the
// scan no longer flags fails too, so the list only shrinks.
func TestSurface(t *testing.T) {
	files, err := moduleFiles()
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllow("testdata/surface_allow.txt", 20)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := surfaceProblems(files, allow)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestSurfaceScannerCatchesPlantedCases runs the scanner on an
// in-memory module holding one case of each failure.
func TestSurfaceScannerCatchesPlantedCases(t *testing.T) {
	files := map[string][]byte{
		"internal/a/a.go": []byte(`package a

// Used is called from cmd/x.
func Used() int { return unexported() }

// Planted is referenced by nothing.
func Planted() {}

func unexported() int { return 1 }

// T is a type whose field F only a test would read.
type T struct{ F int }

// Kept is allowlisted.
func Kept() {}
`),
		"internal/a/a_test.go": nil,
		"internal/b/b.go": []byte(`package b

// Lone has a caller but its package has no tests.
func Lone() {}
`),
		"cmd/x/main.go": []byte(`package main

import ("m/internal/a"; "m/internal/b")

func main() { _ = a.Used(); var t a.T; _ = t; b.Lone() }
`),
		"cmd/x/main_test.go": nil,
	}
	allow := map[string]string{
		"a.Kept":  "kept on purpose",
		"a.Stale": "no longer declared",
	}
	got, err := surfaceProblems(files, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a.F (internal/a/a.go): exported but referenced by no non-test file",
		"a.Planted (internal/a/a.go): exported but referenced by no non-test file",
		"internal/b: package has no _test.go file",
		"testdata/surface_allow.txt: a.Stale is no longer flagged; delete the entry",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// moduleFiles reads every .go file of the module, test files
// included, keyed by module-relative slash path; testdata and dot
// directories are skipped.
func moduleFiles() (map[string][]byte, error) {
	files := map[string][]byte{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		files[filepath.ToSlash(p)] = src
		return err
	})
	return files, err
}

// surfaceProblems scans files (module-relative slash paths; a _test.go
// entry's contents are not read) and returns one line per flagged
// identifier or package that allow does not excuse, and one per allow
// entry that is no longer flagged, sorted.
func surfaceProblems(files map[string][]byte, allow map[string]string) ([]string, error) {
	flagged := map[string]string{} // key -> problem
	refs := map[string]bool{}
	type decl struct{ key, file, name string }
	var decls []decl
	hasCode, hasTest := map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for name, src := range files {
		dir := path.Dir(name)
		if strings.HasSuffix(name, "_test.go") {
			hasTest[dir] = true
			continue
		}
		hasCode[dir] = true
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		declared := map[*ast.Ident]bool{}
		for _, id := range declaredIdents(f) {
			declared[id] = true
			if strings.HasPrefix(name, "internal/") && id.IsExported() {
				decls = append(decls, decl{f.Name.Name + "." + id.Name, name, id.Name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[id.Name] = true
			}
			return true
		})
	}
	for _, d := range decls {
		if !refs[d.name] {
			flagged[d.key] = fmt.Sprintf("%s (%s): exported but referenced by no non-test file", d.key, d.file)
		}
	}
	for dir := range hasCode {
		if (strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")) && !hasTest[dir] {
			flagged[dir] = dir + ": package has no _test.go file"
		}
	}
	var out []string
	for key, p := range flagged {
		if _, ok := allow[key]; !ok {
			out = append(out, p)
		}
	}
	for key := range allow {
		if _, ok := flagged[key]; !ok {
			out = append(out, "testdata/surface_allow.txt: "+key+" is no longer flagged; delete the entry")
		}
	}
	sort.Strings(out)
	return out, nil
}

// declaredIdents returns the names f declares at package level: funcs,
// methods, types, consts and vars, plus the fields and interface
// methods of its top-level types.
func declaredIdents(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			ids = append(ids, d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					ids = append(ids, s.Names...)
				case *ast.TypeSpec:
					ids = append(ids, s.Name)
					var fields *ast.FieldList
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields
					case *ast.InterfaceType:
						fields = t.Methods
					}
					if fields != nil {
						for _, fl := range fields.List {
							ids = append(ids, fl.Names...)
						}
					}
				}
			}
		}
	}
	return ids
}

// readAllow reads an allowlist of at most max entries: one
// "key reason" line each. Blank lines and # comments are skipped; an
// entry without a reason is an error.
func readAllow(name string, max int) (map[string]string, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s: entry %q has no reason", name, key)
		}
		allow[key] = reason
	}
	if len(allow) > max {
		return nil, fmt.Errorf("%s: %d entries, at most %d", name, len(allow), max)
	}
	return allow, sc.Err()
}
