// Package census holds the exported-name census: a check that the set of
// exported names in internal/... that nothing outside their package uses
// does not grow.
package census

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// maxUnreached is the checked-in census count. Lower it when a change
// deletes or starts using a listed name; never raise it to admit a new one.
const maxUnreached = 140

const module = "repro"

// pkgFiles is one directory's non-test Go files.
type pkgFiles struct {
	name  string // package clause
	files []*ast.File
}

// TestExportCensus lists the exported top-level funcs, types, consts and
// vars of every package under internal/ that no non-test file outside
// that package names through its import, and fails if there are more than
// maxUnreached. Every non-test file of the repository counts as a user:
// internal/, cmd/, examples/, benchmark/ and the root package. Methods and
// struct fields are out of scope.
func TestExportCensus(t *testing.T) {
	pkgs := loadModule(t)

	// used[path][name]: some file outside path names path.name.
	used := map[string]map[string]bool{}
	for ip, p := range pkgs {
		for _, f := range p.files {
			alias := map[string]string{} // local name → import path
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				target := pkgs[path]
				if target == nil || path == ip {
					continue
				}
				name := target.name
				if imp.Name != nil {
					name = imp.Name.Name
				}
				alias[name] = path
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok {
					if path, ok := alias[x.Name]; ok {
						if used[path] == nil {
							used[path] = map[string]bool{}
						}
						used[path][sel.Sel.Name] = true
					}
				}
				return true
			})
		}
	}

	var unreached []string
	for ip, p := range pkgs {
		if !strings.HasPrefix(ip, module+"/internal/") {
			continue
		}
		for _, name := range exportedNames(p.files) {
			if !used[ip][name] {
				unreached = append(unreached, strings.TrimPrefix(ip, module+"/")+"."+name)
			}
		}
	}
	sort.Strings(unreached)
	for _, name := range unreached {
		t.Log(name)
	}
	t.Logf("census: %d exported names in internal/... unreached from outside their package (limit %d)",
		len(unreached), maxUnreached)
	if len(unreached) > maxUnreached {
		t.Errorf("%d unreached exported names, more than the checked-in %d: use, unexport or delete the new ones",
			len(unreached), maxUnreached)
	}
}

// repoRoot is the repository root: two levels above this package.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// walkGo calls fn with the slash-separated path, relative to root, of every
// Go file under root, testdata and dot directories aside.
func walkGo(root string, fn func(rel string) error) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		return fn(filepath.ToSlash(rel))
	})
}

// loadModule parses every non-test Go file of the repository (testdata and
// dot directories aside) and returns them by import path.
func loadModule(t *testing.T) map[string]*pkgFiles {
	t.Helper()
	root := repoRoot(t)
	pkgs := map[string]*pkgFiles{} // by import path
	fset := token.NewFileSet()
	err := walkGo(root, func(rel string) error {
		if strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, filepath.Join(root, rel), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := module
		if dir := path.Dir(rel); dir != "." {
			ip += "/" + dir
		}
		p := pkgs[ip]
		if p == nil {
			p = &pkgFiles{name: f.Name.Name}
			pkgs[ip] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// exportedNames returns the exported top-level funcs (not methods), types,
// consts and vars the files declare.
func exportedNames(files []*ast.File) []string {
	var out []string
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					out = append(out, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							out = append(out, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								out = append(out, n.Name)
							}
						}
					}
				}
			}
		}
	}
	return out
}
