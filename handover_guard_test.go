package cellbricks

import (
	"go/ast"
	"path"
	"sort"
	"testing"
)

// TestOneHandoverRoutine fails when non-test code in internal/testbed calls
// Route.Handovers (the statistical handover draw) or accessPath.rehome (the
// CellBricks address change) from more than one function, or from none.
// Every single-UE world shares one drive and one handover routine
// (access.go, DESIGN.md §2.6); a second caller is a second copy of the
// mobility story. "Calls" is syntactic: any .Handovers( or .rehome(
// selector call, whatever the receiver; a function literal counts as the
// function it is written in.
func TestOneHandoverRoutine(t *testing.T) {
	_, tree := goTree(t)
	callers := map[string]map[string]bool{"Handovers": {}, "rehome": {}}
	for _, gs := range tree {
		if gs.test || path.Dir(gs.path) != "internal/testbed" {
			continue
		}
		for _, decl := range gs.f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && callers[sel.Sel.Name] != nil {
					callers[sel.Sel.Name][path.Base(gs.path)+": "+name] = true
				}
				return true
			})
		}
	}
	for method, in := range callers {
		var names []string
		for name := range in {
			names = append(names, name)
		}
		sort.Strings(names)
		if len(names) != 1 {
			t.Errorf(".%s( is called from %d functions, want exactly 1: %v", method, len(names), names)
		}
	}
}
