package census

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The repository rules: each holds the tree to one decision the code
// depends on, and fails with a message naming the decision and every file
// that breaks it.

// docs are the documents whose citations must name what exists.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// historyFlags are the flags the docs cite that no flag call in the
// repository defines: go tool flags, and deleted flags named as history.
var historyFlags = map[string]bool{
	"race": true, "run": true, "count": true, "bench": true, "testcache": true, "args": true, "fuzz": true, "fuzztime": true,
	"batch-io": true, "pin-shards": true,
}

// historyNames are the pkg.Name citations of the docs that name deleted
// declarations as history.
var historyNames = map[string]bool{"ttlwheel.Node": true, "ghost.Queue.Oldest": true}

var (
	queueImport = regexp.MustCompile(`"(repro/internal/dlist|container/list)"`)
	backendDial = regexp.MustCompile(`server\.Dial(WithConfig)?\b`)
	// docPath is a cmd/, examples/, scripts/ or internal/ path not glued to
	// a longer path, or a BENCH_*.json name; a pkg.Name citation checks the
	// package's directory.
	docPath = regexp.MustCompile(`(?m)(?:^|[^A-Za-z0-9_/.-])(?:\./)?((?:cmd|examples|scripts|internal)/[A-Za-z0-9_./-]*)|(BENCH_[A-Za-z0-9_]*\.json)`)
	// codeSpan is one backticked span of a line; docFlag is a flag of two or
	// more characters within it.
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	docFlag  = regexp.MustCompile(`(?:^|[\s(\[])--?([a-z][a-z0-9-]+)`)
	// docName is a pkg.Name or pkg.Type.Member citation within a code span,
	// not the tail of a longer selector.
	docName = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])([a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_]*(?:\.[A-Z][A-Za-z0-9_]*)?)`)
	// docFamily is a cache_ metric family within a code span; one ending
	// in _ (or _*, whose * the match leaves off) names a prefix.
	docFamily = regexp.MustCompile(`(?:^|[^A-Za-z0-9_])(cache_[a-z0-9_]*)`)
)

// docCeilings are the checked-in byte ceilings of the two long docs. Lower
// one when a change shrinks its doc; never raise it to admit growth.
var docCeilings = map[string]int{"README.md": 38550, "DESIGN.md": 95927}

// rules each list the files or names under a root that break them.
var rules = []struct {
	name, msg string
	check     func(t *testing.T, root string) []string
}{
	// internal/slab's lists are the only linked lists: no Go file, tests
	// included, imports internal/dlist or container/list.
	{"one queue primitive", "linked lists beside internal/slab:", queueImporters},
	// internal/cluster/endpoint.go is the one place the cluster dials a
	// backend: no other non-test file there names server.Dial or
	// server.DialWithConfig.
	{"one way to reach a backend", "backend dials outside internal/cluster/endpoint.go:", backendDials},
	// Every cmd/, examples/, scripts/ and internal/ path and BENCH_*.json
	// name in the docs is in the tree.
	{"docs name only what exists", "docs name paths missing from the tree:", missingPaths},
	// Every flag the docs cite in backticks is defined by a flag.X or
	// FlagSet.X call, tests and benchmark/ included, or is in historyFlags.
	{"docs cite only defined flags", "docs cite flags that no flag.X or FlagSet.X call defines:", undefinedFlags},
	// Every pkg.Name or pkg.Type.Member the docs cite in backticks, where
	// pkg is the name of a package of the module other than main, is an
	// exported declaration of that package, or a method or field of its
	// type, or is in historyNames. Names of other packages (sync.Pool) are
	// not checked.
	{"docs cite only declared names", "docs cite names that no declaration of the package defines:", undeclaredNames},
	// Every cache_ metric family the docs cite in backticks is a string
	// literal of a non-test Go file; a cited prefix (cache_mrc_*) begins
	// one.
	{"docs cite only defined metric families", "docs cite metric families that no non-test string literal defines:", undefinedFamilies},
	// README.md and DESIGN.md stay within docCeilings.
	{"docs stay within their ceilings", "docs over their byte ceilings in internal/census (lower a ceiling, never raise one):", oversizedDocs},
}

// report renders a broken rule: its message, then one offender per line.
func report(msg string, bad []string) string {
	return strings.Join(append([]string{msg}, bad...), "\n")
}

func TestRules(t *testing.T) {
	root := repoRoot(t)
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			if bad := r.check(t, root); len(bad) > 0 {
				t.Error(report(r.msg, bad))
			}
		})
	}
}

func queueImporters(t *testing.T, root string) []string {
	t.Helper()
	var bad []string
	err := walkGo(root, func(rel string) error {
		src, err := os.ReadFile(filepath.Join(root, rel))
		if queueImport.Match(src) {
			bad = append(bad, rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return bad
}

func backendDials(t *testing.T, root string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root, "internal", "cluster", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") || filepath.Base(f) == "endpoint.go" {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if backendDial.Match(src) {
			rel, _ := filepath.Rel(root, f)
			bad = append(bad, filepath.ToSlash(rel))
		}
	}
	return bad
}

// TestNoBuildOutputCheckedIn: no file git tracks is over 1 MiB or starts
// with the ELF magic. Outside a git checkout there is no tracked set, and
// the test skips.
func TestNoBuildOutputCheckedIn(t *testing.T) {
	root := repoRoot(t)
	out, err := exec.Command("git", "-C", root, "ls-files", "-z").Output()
	if err != nil {
		t.Skipf("no tracked set: git ls-files: %v", err)
	}
	for _, rel := range strings.Split(strings.TrimSuffix(string(out), "\x00"), "\x00") {
		b, err := os.ReadFile(filepath.Join(root, rel))
		switch {
		case err != nil:
			// deleted in the working tree, not yet committed
		case len(b) > 1<<20:
			t.Errorf("tracked file over 1 MiB: %s", rel)
		case bytes.HasPrefix(b, []byte("\x7fELF")):
			t.Errorf("tracked ELF binary: %s", rel)
		}
	}
}

// TestBenchmarkModuleVets runs `go vet ./...` in benchmark/, a module of its
// own that `go test ./...` at the root never lists, so that a root change
// breaking an API the benchmark calls, or one of its test files, fails here.
func TestBenchmarkModuleVets(t *testing.T) {
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = filepath.Join(repoRoot(t), "benchmark")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}

func readDocs(t *testing.T, root string) [][]byte {
	t.Helper()
	var out [][]byte
	for _, name := range docs {
		b, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func missingPaths(t *testing.T, root string) []string {
	t.Helper()
	cited := map[string]bool{}
	for _, doc := range readDocs(t, root) {
		for _, m := range docPath.FindAllSubmatch(doc, -1) {
			p := strings.TrimRight(string(m[1])+string(m[2]), "./")
			cited[p] = true
		}
	}
	var bad []string
	for p := range cited {
		if _, err := os.Stat(filepath.Join(root, p)); err == nil {
			continue
		}
		if i := strings.LastIndex(p, "."); i > 0 {
			if fi, err := os.Stat(filepath.Join(root, p[:i])); err == nil && fi.IsDir() {
				continue
			}
		}
		bad = append(bad, p)
	}
	sort.Strings(bad)
	return bad
}

func undefinedFlags(t *testing.T, root string) []string {
	t.Helper()
	defined := definedFlags(t, root)
	seen := map[string]bool{}
	var bad []string
	for _, doc := range readDocs(t, root) {
		for _, span := range codeSpan.FindAllSubmatch(doc, -1) {
			for _, m := range docFlag.FindAllSubmatch(span[1], -1) {
				name := string(m[1])
				if !defined[name] && !historyFlags[name] && !seen[name] {
					seen[name] = true
					bad = append(bad, "-"+name)
				}
			}
		}
	}
	sort.Strings(bad)
	return bad
}

// definedFlags returns the name of every flag a flag.X or FlagSet.X call
// defines in a Go file under root, tests included.
func definedFlags(t *testing.T, root string) map[string]bool {
	t.Helper()
	// The flag package's defining calls, by the index of the name argument.
	nameArg := map[string]int{
		"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0,
		"Uint": 0, "Uint64": 0, "Func": 0, "BoolFunc": 0,
		"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
		"StringVar": 1, "UintVar": 1, "Uint64Var": 1, "TextVar": 1, "Var": 1,
	}
	defined := map[string]bool{}
	fset := token.NewFileSet()
	err := walkGo(root, func(rel string) error {
		f, err := parser.ParseFile(fset, filepath.Join(root, rel), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			i, ok := nameArg[sel.Sel.Name]
			if !ok || i >= len(call.Args) {
				return true
			}
			if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					defined[name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return defined
}

func undeclaredNames(t *testing.T, root string) []string {
	t.Helper()
	declared := declaredNames(t, root)
	seen := map[string]bool{}
	var bad []string
	for _, doc := range readDocs(t, root) {
		for _, span := range codeSpan.FindAllSubmatch(doc, -1) {
			for _, m := range docName.FindAllSubmatch(span[1], -1) {
				name := string(m[1])
				pkg, sym, _ := strings.Cut(name, ".")
				if names := declared[pkg]; names != nil && !names[sym] && !historyNames[name] && !seen[name] {
					seen[name] = true
					bad = append(bad, name)
				}
			}
		}
	}
	sort.Strings(bad)
	return bad
}

func undefinedFamilies(t *testing.T, root string) []string {
	t.Helper()
	literals := stringLiterals(t, root)
	defined := func(family string) bool {
		if !strings.HasSuffix(family, "_") {
			return literals[family]
		}
		for lit := range literals {
			if strings.HasPrefix(lit, family) {
				return true
			}
		}
		return false
	}
	seen := map[string]bool{}
	var bad []string
	for _, doc := range readDocs(t, root) {
		for _, span := range codeSpan.FindAllSubmatch(doc, -1) {
			for _, m := range docFamily.FindAllSubmatch(span[1], -1) {
				family := string(m[1])
				if !seen[family] && !defined(family) {
					bad = append(bad, family)
				}
				seen[family] = true
			}
		}
	}
	sort.Strings(bad)
	return bad
}

// stringLiterals returns the value of every string literal in a non-test
// Go file under root.
func stringLiterals(t *testing.T, root string) map[string]bool {
	t.Helper()
	literals := map[string]bool{}
	fset := token.NewFileSet()
	err := walkGo(root, func(rel string) error {
		if strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, filepath.Join(root, rel), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil {
					literals[v] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return literals
}

// declaredNames returns, by package name, the exported names every
// package but main declares under root, tests included: top-level names
// as Name, methods and struct or interface fields as Type.Member.
func declaredNames(t *testing.T, root string) map[string]map[string]bool {
	t.Helper()
	declared := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := walkGo(root, func(rel string) error {
		f, err := parser.ParseFile(fset, filepath.Join(root, rel), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		if pkg == "main" {
			return nil
		}
		if declared[pkg] == nil {
			declared[pkg] = map[string]bool{}
		}
		names := declared[pkg]
		add := func(prefix, name string) {
			if token.IsExported(name) {
				names[prefix+name] = true
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add("", d.Name.Name)
				} else {
					add(typeName(d.Recv.List[0].Type)+".", d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add("", id.Name)
						}
					case *ast.TypeSpec:
						add("", spec.Name.Name)
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						default:
							continue
						}
						for _, field := range fields.List {
							if len(field.Names) == 0 { // embedded: the field is named by its type
								add(spec.Name.Name+".", typeName(field.Type))
							}
							for _, id := range field.Names {
								add(spec.Name.Name+".", id.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

// typeName is the name of the type expression x (T, *T, T[P], pkg.T), or
// "" for any other expression.
func typeName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

func oversizedDocs(t *testing.T, root string) []string {
	t.Helper()
	var bad []string
	for name, ceiling := range docCeilings {
		fi, err := os.Stat(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > int64(ceiling) {
			bad = append(bad, fmt.Sprintf("%s: %d bytes, ceiling %d", name, fi.Size(), ceiling))
		}
	}
	sort.Strings(bad)
	return bad
}

// Each rule fails, with its message, on a tree seeded with one violation
// of it.
func TestRulesCatchSeededViolations(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, doc := range docs {
		write(doc, "")
	}
	write("README.md", "See `internal/x`, `internal/nope`, `cmd -yes -nope`, `x.Here`, `x.T.M`, `x.Gone` and `sync.Gone`.\n"+
		"Scrape `cache_here_total{a=\"b\"}`, `cache_pre_*`, `cache_gone_total` and `cache_tested_total`.\n")
	write("DESIGN.md", strings.Repeat("\n", docCeilings["DESIGN.md"]+1))
	write("main.go", "package main\n\nvar yes = flag.Bool(\"yes\", false, \"\")\n\nvar families = []string{\"cache_here_total\", \"cache_pre_x\"}\n")
	write("main_test.go", "package main\n\nvar tested = \"cache_tested_total\"\n")
	// The import path is split so this file's own source cannot match.
	write("internal/x/x.go", "package x\n\nimport _ \"container/"+"list\"\n\nfunc Here() {}\n\ntype T struct{ M int }\n")
	write("internal/cluster/endpoint.go", "package cluster\n\nvar dial = server.Dial\n")
	write("internal/cluster/router.go", "package cluster\n\nvar dial = server.DialWithConfig\n")

	want := map[string]string{
		"one queue primitive":                    "linked lists beside internal/slab:\ninternal/x/x.go",
		"one way to reach a backend":             "backend dials outside internal/cluster/endpoint.go:\ninternal/cluster/router.go",
		"docs name only what exists":             "docs name paths missing from the tree:\ninternal/nope",
		"docs cite only defined flags":           "docs cite flags that no flag.X or FlagSet.X call defines:\n-nope",
		"docs cite only declared names":          "docs cite names that no declaration of the package defines:\nx.Gone",
		"docs cite only defined metric families": "docs cite metric families that no non-test string literal defines:\ncache_gone_total\ncache_tested_total",
		"docs stay within their ceilings": fmt.Sprintf("docs over their byte ceilings in internal/census (lower a ceiling, never raise one):\nDESIGN.md: %d bytes, ceiling %d",
			docCeilings["DESIGN.md"]+1, docCeilings["DESIGN.md"]),
	}
	for _, r := range rules {
		if got := report(r.msg, r.check(t, root)); got != want[r.name] {
			t.Errorf("%s on the seeded tree reports\n%s\nwant\n%s", r.name, got, want[r.name])
		}
	}
}
