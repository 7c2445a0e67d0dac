package cellbricks

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
	eachGoFile(t, fset, func(p string, f *ast.File) {
		if strings.HasPrefix(p, "internal/sap/") {
			return
		}
		sapName := importName(f, "cellbricks/internal/sap")
		inBenchmark := strings.HasPrefix(p, "benchmark/")
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
	})

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

// brokerClients are the only non-test types outside benchmark/ allowed an
// Authenticate(*sap.AuthReqT) method: the wire client, the in-process
// client, and the two testbed worlds' wrappers that add only what their
// world models on top of the in-process one (broker liveness; Fig. 7's
// charges).
var brokerClients = map[string]bool{
	"internal/broker.Client":              true,
	"internal/broker.Local":               true,
	"internal/testbed.foBrokerClient":     true,
	"internal/testbed.instrumentedBroker": true,
}

// TestMiddleStaysThin fails when anything imports the retired orchestrator
// package, and when a non-test type outside benchmark/ and brokerClients
// grows an Authenticate(*sap.AuthReqT) method — one more way for an AGW to
// reach a broker; wrap broker.Local or broker.Client instead. An entry of
// brokerClients that no longer exists fails too, so the list stays exact.
func TestMiddleStaysThin(t *testing.T) {
	fset := token.NewFileSet()
	found := map[string]bool{}
	eachGoFile(t, fset, func(p string, f *ast.File) {
		for _, imp := range f.Imports {
			if ip, _ := strconv.Unquote(imp.Path.Value); ip == "cellbricks/internal/orc8r" {
				t.Errorf("%s imports %s, which is retired: no result reads an orchestrator", fset.Position(imp.Pos()), ip)
			}
		}
		if strings.HasPrefix(p, "benchmark/") || strings.HasSuffix(p, "_test.go") {
			return
		}
		sapName := importName(f, "cellbricks/internal/sap")
		if sapName == "" && !strings.HasPrefix(p, "internal/sap/") {
			return // cannot name sap.AuthReqT
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "Authenticate" || len(fn.Type.Params.List) != 1 {
				continue
			}
			star, ok := fn.Type.Params.List[0].Type.(*ast.StarExpr)
			if !ok || !isAuthReqT(star.X, sapName) {
				continue
			}
			recv := fn.Recv.List[0].Type
			if s, ok := recv.(*ast.StarExpr); ok {
				recv = s.X
			}
			id, _ := recv.(*ast.Ident)
			if id == nil {
				continue
			}
			name := path.Dir(p) + "." + id.Name
			found[name] = true
			if !brokerClients[name] {
				t.Errorf("%s: %s implements Authenticate(*sap.AuthReqT); wrap broker.Local or broker.Client instead", fset.Position(fn.Pos()), name)
			}
		}
	})
	for name := range brokerClients {
		if !found[name] {
			t.Errorf("brokerClients allows %s, which no longer exists: drop it", name)
		}
	}
}

// isAuthReqT reports whether x names sap.AuthReqT: sapName.AuthReqT, or a
// bare AuthReqT inside package sap itself (sapName empty).
func isAuthReqT(x ast.Expr, sapName string) bool {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		pkg, ok := x.X.(*ast.Ident)
		return ok && pkg.Name == sapName && x.Sel.Name == "AuthReqT"
	case *ast.Ident:
		return sapName == "" && x.Name == "AuthReqT"
	}
	return false
}

// eachGoFile parses every .go file in the repository, tests included, and
// hands it to visit with its slash-separated path.
func eachGoFile(t *testing.T, fset *token.FileSet, visit func(p string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == ".git" {
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
		visit(filepath.ToSlash(p), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// importName is what f calls the package at importPath, or "" when f does
// not import it.
func importName(f *ast.File, importPath string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == importPath {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path.Base(importPath)
		}
	}
	return ""
}
