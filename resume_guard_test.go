package cellbricks

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// resumeFile is what is left of the retired HMAC resume protocol: the
// exchange benchmark/prices.go still prices (ROADMAP item 1a deletes both).
const resumeFile = "internal/sap/resume.go"

// TestResumeStaysRetired fails when anything outside internal/sap and
// benchmark/ — tests included — names one of resumeFile's exported
// identifiers, so resume cannot creep back into a product path; and when
// resumeFile exports a name benchmark/ no longer uses, which is then dead.
// "Names" is syntactic: sap.X for a package-level X of that file, and .M
// for any of its methods, whatever the receiver expression.
func TestResumeStaysRetired(t *testing.T) {
	fset := token.NewFileSet()
	rf, err := parser.ParseFile(fset, resumeFile, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	decls, methods := map[string]bool{}, map[string]bool{}
	for _, d := range rf.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Recv != nil {
				methods[d.Name.Name] = true
			} else if d.Name.IsExported() {
				decls[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						decls[s.Name.Name] = true
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							decls[id.Name] = true
						}
					}
				}
			}
		}
	}

	used := map[string]bool{} // by benchmark/
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == ".git" || p == filepath.FromSlash("internal/sap") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		sapName := "" // what this file calls internal/sap, if it imports it
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "cellbricks/internal/sap" {
				sapName = "sap"
				if imp.Name != nil {
					sapName = imp.Name.Name
				}
			}
		}
		inBenchmark := strings.HasPrefix(filepath.ToSlash(p), "benchmark/")
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			pkg, _ := sel.X.(*ast.Ident)
			if !methods[name] && !(decls[name] && pkg != nil && sapName != "" && pkg.Name == sapName) {
				return true
			}
			if inBenchmark {
				used[name] = true
			} else {
				t.Errorf("%s: names %s, a resume identifier of %s; attach through the SAP handshake", fset.Position(sel.Pos()), name, resumeFile)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	for name := range decls {
		if !used[name] {
			dead = append(dead, name)
		}
	}
	for name := range methods {
		if !used[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s exports %s and benchmark/ no longer uses it: delete it", resumeFile, name)
	}
	t.Logf("%s exports %d identifiers, all of them benchmark/'s", resumeFile, len(decls)+len(methods))
}
