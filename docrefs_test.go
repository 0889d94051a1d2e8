package pase_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// docRefFiles are the documents whose references TestDocRefs resolves.
// PERF_HISTORY.md and CHANGES.md are history: they name code as it was.
var docRefFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// TestDocRefs holds the prose to the code it describes. In each of
// docRefFiles, every backticked Go name — `Ident`, `pkg.Ident`,
// `Type.Method`, `pkg.Type.Field`, with a trailing call or type
// argument list dropped and a trailing * read as a prefix — must name
// a declaration of the module (test files, unexported names, fields
// and methods count), a declaration of the standard-library package it
// is qualified by (a bare `FlagSet` is written `flag.FlagSet`), or a
// metric BENCHMARK.json declares (`sim.events`); every backticked
// path/file.go, internal/… or cmd/… must exist; no file.go:NNN may
// appear, since line numbers rot; and every FILE.md §"Heading" must
// name a heading of FILE.md. Generated blocks (pins, claims) and fenced
// code are not read. Exceptions live in testdata/docrefs_allow.txt, one
// "reference reason" line each; an entry the scan no longer flags
// fails, and so does one that names module code, which is deleted from
// the prose instead.
func TestDocRefs(t *testing.T) {
	files, err := moduleFiles()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := indexModule(files)
	if err != nil {
		t.Fatal(err)
	}
	if idx.metrics, err = benchmarkMetrics("BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	mds, err := filepath.Glob("*.md") // the scanned files and every § target
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{}
	for _, name := range mds {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
	}
	allow, err := readAllow("testdata/docrefs_allow.txt", 10)
	if err != nil {
		t.Fatal(err)
	}
	exists := func(p string) bool { _, err := os.Stat(p); return err == nil }
	for _, p := range docRefProblems(docs, docRefFiles, idx, exists, allow) {
		t.Error(p)
	}
}

// benchmarkMetrics reads the end-to-end and per-layer metric names a
// benchmark declaration file lists.
func benchmarkMetrics(name string) (map[string]bool, error) {
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return nil, err
	}
	m := map[string]bool{}
	for _, x := range append(decl.EndToEnd, decl.PerLayer...) {
		m[x.Name] = true
	}
	return m, nil
}

// TestDocRefsCatchesPlantedCases runs the scan on an in-memory module
// and document holding one stale reference of each kind, and on an
// allowlist with a stale entry and one that names module code.
func TestDocRefsCatchesPlantedCases(t *testing.T) {
	files := map[string][]byte{
		"internal/a/a.go": []byte(`package a

// Pool is a type with a method and a field.
type Pool struct{ free int }

// DrawFrom is a method.
func (p *Pool) DrawFrom() {}

// Alias follows its target.
type Alias = Pool
`),
		"internal/a/a_test.go": []byte(`package a

func helperOnlyTests() {}
`),
	}
	idx, err := indexModule(files)
	if err != nil {
		t.Fatal(err)
	}
	idx.metrics = map[string]bool{"a.kept_share": true}
	doc := "# Doc\n\n## Kept heading\n\n" +
		"Live: `a.Pool`, `Pool.DrawFrom()`, `Alias.free`, `helperOnlyTests`, `Pool.Dr*`,\n" +
		"`strings.Cut`, `flag.FlagSet.Visit`, `internal/a/a.go`, `a.go`, `run.json`,\n" +
		"DOC.md §\"Kept\nheading\", `a.kept_share` and `Allowed.Thing`.\n\n" +
		"```\n`insideFence` is code, not prose\n```\n\n" +
		"Stale: `withPool`, `a.Gone`, `Pool.Gone(x)`, `Alias.Gone`, `strings.NoSuchFunc`, `FlagSet`,\n" +
		"`sort.NoSuchFunc`, `a.gone_share`, `internal/a/gone.go`, `cmd/gone`, a.go:12, DOC.md §\"Moved heading\".\n"
	allow := map[string]string{
		"Allowed.Thing": "an allowed exception",
		"Stale.Entry":   "no longer in any document",
		"a.Pool":        "names module code",
	}
	exists := func(p string) bool { return p == "internal/a/a.go" }
	got := docRefProblems(map[string]string{"DOC.md": doc}, []string{"DOC.md"}, idx, exists, allow)
	want := []string{
		"DOC.md:14: `Alias.Gone` names nothing in the module or the standard library",
		"DOC.md:14: `FlagSet` names nothing in the module or the standard library",
		"DOC.md:14: `Pool.Gone(x)` names nothing in the module or the standard library",
		"DOC.md:14: `a.Gone` names nothing in the module or the standard library",
		"DOC.md:14: `strings.NoSuchFunc` names nothing in the module or the standard library",
		"DOC.md:14: `withPool` names nothing in the module or the standard library",
		"DOC.md:15: `a.go:12` is a line-number reference; name the function instead",
		"DOC.md:15: `a.gone_share` names nothing in the module or the standard library",
		"DOC.md:15: `cmd/gone` is no file of the module",
		"DOC.md:15: `internal/a/gone.go` is no file of the module",
		"DOC.md:15: `sort.NoSuchFunc` names nothing in the module or the standard library",
		"DOC.md:15: §\"Moved heading\" is no heading of DOC.md",
		"testdata/docrefs_allow.txt: Stale.Entry is no longer flagged; delete the entry",
		"testdata/docrefs_allow.txt: a.Pool names module code; fix the prose instead",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// declIndex is what a package's (or the module's) declarations name.
type declIndex struct {
	// names holds every declared name: package-level, fields, methods.
	names map[string]bool
	// pkgs maps a package name (an _test suffix dropped) to its
	// package-level names.
	pkgs map[string]map[string]bool
	// types maps a type name to the members of every type of that
	// name, in whichever package.
	types map[string]*typeDecl
	// fieldTypes maps a field name to the named types of the fields so
	// called, so `Trace.SampleN` reads as a field's member.
	fieldTypes map[string][]string
	// files are the indexed files' module-relative paths.
	files []string
	// metrics are the benchmark's metric names (BENCHMARK.json), which
	// the prose cites as `sim.events` or `netem.drop_share`.
	metrics map[string]bool
}

// typeDecl is a declared type: its fields and methods, each with the
// name of its type where that is a named type, and the named types it
// embeds, aliases or is defined as, whose members it also answers for.
type typeDecl struct {
	members map[string]string
	via     []string
}

func newDeclIndex() *declIndex {
	return &declIndex{
		names:      map[string]bool{},
		pkgs:       map[string]map[string]bool{},
		types:      map[string]*typeDecl{},
		fieldTypes: map[string][]string{},
	}
}

// indexModule parses every file of files into one index.
func indexModule(files map[string][]byte) (*declIndex, error) {
	idx := newDeclIndex()
	fset := token.NewFileSet()
	for name, src := range files {
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		idx.add(f)
		idx.files = append(idx.files, name)
	}
	return idx, nil
}

// typ returns the entry of the type called name, made on first use.
func (idx *declIndex) typ(name string) *typeDecl {
	td := idx.types[name]
	if td == nil {
		td = &typeDecl{members: map[string]string{}}
		idx.types[name] = td
	}
	return td
}

// add indexes f: every name declaredIdents finds, the package-level
// ones under f's package, and each type's fields and methods.
func (idx *declIndex) add(f *ast.File) {
	for _, id := range declaredIdents(f) {
		idx.names[id.Name] = true
	}
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	top := idx.pkgs[pkg]
	if top == nil {
		top = map[string]bool{}
		idx.pkgs[pkg] = top
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				top[d.Name.Name] = true
			} else if r := typeName(d.Recv.List[0].Type); r != "" {
				idx.typ(r).members[d.Name.Name] = ""
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						top[n.Name] = true
					}
				case *ast.TypeSpec:
					top[s.Name.Name] = true
					td := idx.typ(s.Name.Name)
					var fields *ast.FieldList
					switch u := s.Type.(type) {
					case *ast.StructType:
						fields = u.Fields
					case *ast.InterfaceType:
						fields = u.Methods
					default:
						if n := typeName(u); n != "" {
							td.via = append(td.via, n)
						}
						continue
					}
					for _, fl := range fields.List {
						tn := typeName(fl.Type)
						if len(fl.Names) == 0 && tn != "" {
							td.via = append(td.via, tn)
							td.members[tn] = tn
						}
						for _, n := range fl.Names {
							td.members[n.Name] = tn
							if tn != "" {
								idx.fieldTypes[n.Name] = append(idx.fieldTypes[n.Name], tn)
							}
						}
					}
				}
			}
		}
	}
}

// typeName is the name of the named type e spells, behind any pointer
// or type arguments: "Pool" for *pkt.Pool, "List" for pool.List[T];
// "" for a slice, map, func or literal type.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	}
	return ""
}

// member reports whether the type called typ has member m, through
// the types it embeds or aliases, and the name of the member's type.
func (idx *declIndex) member(typ, m string, depth int) (bool, string) {
	td := idx.types[typ]
	if td == nil || depth > 4 {
		return false, ""
	}
	if t, ok := td.members[m]; ok {
		return true, t
	}
	for _, v := range td.via {
		if ok, t := idx.member(v, m, depth+1); ok {
			return true, t
		}
	}
	return false, ""
}

// chain reports whether segs are members in turn of the type called
// typ: precisely while each member's type is a known named type,
// loosely (any declared name) after that.
func (idx *declIndex) chain(typ string, segs []string) bool {
	for _, s := range segs {
		if idx.types[typ] == nil {
			if !idx.names[s] {
				return false
			}
			typ = ""
			continue
		}
		ok, t := idx.member(typ, s, 0)
		if !ok {
			return false
		}
		typ = t
	}
	return true
}

// resolve reports whether the dotted name segs names a declaration:
// pkg.Name… of a module package, Type.Member… or field.Member… of a
// module type, pkg.Name… of the standard-library package std finds
// when the module declares no package and no type so named, or else a
// chain of declared names after a name that is no type.
func (idx *declIndex) resolve(segs []string, std func(pkg string, names []string) *declIndex) bool {
	first, rest := segs[0], segs[1:]
	if top := idx.pkgs[first]; top != nil && len(rest) > 0 {
		return top[rest[0]] && idx.chain(rest[0], rest[1:])
	}
	if idx.types[first] != nil && idx.chain(first, rest) {
		return true
	}
	for _, t := range idx.fieldTypes[first] {
		if idx.chain(t, rest) {
			return true
		}
	}
	if idx.types[first] != nil {
		return false
	}
	if len(rest) > 0 && std != nil {
		if s := std(first, rest); s != nil {
			return s.resolve(segs, nil)
		}
	}
	return idx.names[first] && idx.chain("", rest)
}

// stdPkg is a standard-library package read from GOROOT/src: the
// source of its files, and an index of the ones parsed so far.
type stdPkg struct {
	name string
	src  map[string][]byte // file name -> source, until parsed
	idx  *declIndex
}

// readStdPkg reads the non-test files of the standard-library package
// named pkg; nil when there is none. A package nested one level
// (io/fs, encoding/json) is found by its last element.
func readStdPkg(pkg string) *stdPkg {
	root := filepath.Join(runtime.GOROOT(), "src")
	dirs := []string{filepath.Join(root, pkg)}
	if m, _ := filepath.Glob(filepath.Join(root, "*", pkg)); len(m) > 0 {
		dirs = append(dirs, m...)
	}
	for _, dir := range dirs {
		ents, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		p := &stdPkg{name: pkg, src: map[string][]byte{}, idx: newDeclIndex()}
		for _, e := range ents {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			if src, err := os.ReadFile(filepath.Join(dir, n)); err == nil {
				p.src[n] = src
			}
		}
		if len(p.src) > 0 {
			return p
		}
	}
	return nil
}

// declaring parses and indexes the files that may declare one of
// names — hold it at the start of a line, after indentation or func (and
// a receiver), type, var or const — and returns the index.
func (p *stdPkg) declaring(names []string) *declIndex {
	for _, name := range names {
		for n, src := range p.src {
			if !mayDeclare(src, name) {
				continue
			}
			delete(p.src, n)
			f, err := parser.ParseFile(token.NewFileSet(), n, src, parser.SkipObjectResolution)
			if err == nil && f.Name.Name == p.name {
				p.idx.add(f)
			}
		}
	}
	return p.idx
}

var declPrefix = regexp.MustCompile(`^\s*(?:func\s+(?:\([^)]*\)\s*)?|type\s+|var\s+|const\s+)?$`)

func mayDeclare(src []byte, name string) bool {
	for off := 0; ; {
		i := bytes.Index(src[off:], []byte(name))
		if i < 0 {
			return false
		}
		i += off
		off = i + len(name)
		ls := bytes.LastIndexByte(src[:i], '\n') + 1
		if declPrefix.Match(src[ls:i]) && (off == len(src) || !isIdentByte(src[off])) {
			return true
		}
	}
}

func isIdentByte(b byte) bool {
	return b == '_' || '0' <= b && b <= '9' || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z'
}

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// goName is a dotted Go name; a trailing * makes it a prefix.
	goName   = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*\*?$`)
	goFile   = regexp.MustCompile(`^[A-Za-z0-9_./-]+\.go$`)
	lineRef  = regexp.MustCompile(`[A-Za-z0-9_./-]+\.go:[0-9]+`)
	sectRef  = regexp.MustCompile(`§"([^"]+)"`)
	sectFile = regexp.MustCompile("`?([A-Z_]+\\.md)`?\\s+$")
	notCode  = regexp.MustCompile(`\.(json|tsv|txt|md|out|yml|dev|html)$`)
	argGroup = regexp.MustCompile(`(\([^()]*\)|\[[^\[\]]*\])$`)
)

// docRefProblems scans the documents named by scan (keys of docs; the
// other docs are only targets of § references) and returns one line
// per unresolved reference that allow does not excuse, one per allow
// entry no longer flagged and one per entry naming module code, sorted.
func docRefProblems(docs map[string]string, scan []string, idx *declIndex, exists func(string) bool, allow map[string]string) []string {
	stdPkgs := map[string]*stdPkg{}
	std := func(pkg string, names []string) *declIndex {
		p, ok := stdPkgs[pkg]
		if !ok {
			p = readStdPkg(pkg)
			stdPkgs[pkg] = p
		}
		if p == nil {
			return nil
		}
		return p.declaring(names)
	}
	fileExists := func(p string) bool {
		if exists(p) {
			return true
		}
		for _, f := range idx.files {
			if strings.HasSuffix("/"+f, "/"+p) {
				return true
			}
		}
		return false
	}
	flagged := map[string]bool{}
	var out []string
	for _, doc := range scan {
		text := proseOnly(docs[doc])
		var starts []int // offset of each line's first byte
		for off := 0; off >= 0; {
			starts = append(starts, off)
			if i := strings.IndexByte(text[off:], '\n'); i >= 0 {
				off += i + 1
			} else {
				off = -1
			}
		}
		flag := func(off int, key, msg string) {
			flagged[key] = true
			if _, ok := allow[key]; !ok {
				line := sort.Search(len(starts), func(i int) bool { return starts[i] > off })
				out = append(out, fmt.Sprintf("%s:%d: %s", doc, line, msg))
			}
		}
		if strings.Contains(text, ".go:") {
			for _, m := range lineRef.FindAllStringIndex(text, -1) {
				ref := text[m[0]:m[1]]
				flag(m[0], ref, fmt.Sprintf("`%s` is a line-number reference; name the function instead", ref))
			}
		}
		for _, m := range sectRef.FindAllStringSubmatchIndex(text, -1) {
			target, want := doc, normHeading(text[m[2]:m[3]])
			if f := sectFile.FindStringSubmatch(text[max(0, m[0]-40):m[0]]); f != nil {
				target = f[1]
			}
			if !hasHeading(docs[target], want) {
				flag(m[0], target+" §"+want, fmt.Sprintf("§%q is no heading of %s", want, target))
			}
		}
		for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
			ref := text[m[2]:m[3]]
			switch {
			case lineRef.MatchString(ref):
				// flagged above
			case goFile.MatchString(ref) || strings.HasPrefix(ref, "internal/") || strings.HasPrefix(ref, "cmd/"):
				if !strings.ContainsAny(ref, " *<") && !fileExists(strings.TrimSuffix(ref, "/")) {
					flag(m[2], ref, fmt.Sprintf("`%s` is no file of the module", ref))
				}
			default:
				name := ref
				for argGroup.MatchString(name) {
					name = argGroup.ReplaceAllString(name, "")
				}
				if goName.MatchString(name) && !notCode.MatchString(name) && checked(name, idx) && !resolveRef(name, idx, std) {
					flag(m[2], ref, fmt.Sprintf("`%s` names nothing in the module or the standard library", ref))
				}
			}
		}
	}
	for key := range allow {
		segs := strings.Split(key, ".")
		switch {
		case idx.pkgs[segs[0]] != nil || idx.types[segs[0]] != nil:
			out = append(out, "testdata/docrefs_allow.txt: "+key+" names module code; fix the prose instead")
		case !flagged[key]:
			out = append(out, "testdata/docrefs_allow.txt: "+key+" is no longer flagged; delete the entry")
		}
	}
	sort.Strings(out)
	return out
}

// hasHeading reports whether doc has a heading that is want or starts
// with it, up to a space or a colon.
func hasHeading(doc, want string) bool {
	for _, l := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(l, "#") {
			continue
		}
		h := normHeading(strings.TrimLeft(l, "# "))
		if h == want || strings.HasPrefix(h, want+" ") || strings.HasPrefix(h, want+":") {
			return true
		}
	}
	return false
}

// checked reports whether a backticked name is a Go name worth
// resolving: a dotted name with a capital letter or a known package
// first, or a bare mixed-case name. Lower-case words are prose, flag
// values and JSON keys; all-capital ones are protocol and variable
// names.
func checked(name string, idx *declIndex) bool {
	segs := strings.Split(name, ".")
	hasUpper, hasLower := strings.ToLower(name) != name, strings.ToUpper(name) != name
	if len(segs) == 1 {
		return hasUpper && hasLower
	}
	return hasUpper || idx.pkgs[segs[0]] != nil
}

// resolveRef resolves a dotted name, a trailing * matching any
// declared name with that prefix.
func resolveRef(name string, idx *declIndex, std func(string, []string) *declIndex) bool {
	if idx.metrics[name] {
		return true
	}
	segs := strings.Split(name, ".")
	last := segs[len(segs)-1]
	if !strings.HasSuffix(last, "*") {
		return idx.resolve(segs, std)
	}
	prefix := strings.TrimSuffix(last, "*")
	for n := range idx.names {
		if strings.HasPrefix(n, prefix) && idx.resolve(append(segs[:len(segs)-1:len(segs)-1], n), std) {
			return true
		}
	}
	return false
}

// proseOnly blanks fenced code and the generated pins and claims
// blocks, keeping every newline so offsets still give line numbers.
func proseOnly(doc string) string {
	lines := strings.Split(doc, "\n")
	skip := false
	for i, l := range lines {
		t := strings.TrimSpace(l)
		switch {
		case strings.HasPrefix(t, "```"):
			skip = !skip
			lines[i] = ""
		case strings.HasPrefix(t, "<!-- pins:begin"), strings.HasPrefix(t, "<!-- claims:begin"):
			skip = true
		case strings.HasPrefix(t, "<!-- pins:end"), strings.HasPrefix(t, "<!-- claims:end"):
			skip = false
		}
		if skip {
			lines[i] = ""
		}
	}
	return strings.Join(lines, "\n")
}

// normHeading drops backticks and folds runs of white space, so a
// quoted heading may wrap across lines.
func normHeading(s string) string {
	return strings.Join(strings.Fields(strings.ReplaceAll(s, "`", "")), " ")
}
