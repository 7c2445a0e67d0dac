package cellbricks

import (
	"go/ast"
	"go/token"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// apiKeep names the exported funcs and methods under internal/ that no
// non-test code references, each with the reason another package's tests
// need it exported. A name off this list survives only while some non-test
// caller references it.
var apiKeep = map[string]string{
	"billing.VerifyCheckpoint":   "the arbiter's third-party check; broker tests run it on a broker-held checkpoint",
	"broker.Brokerd.Checkpoints": "epc and testbed tests count the checkpoints a reporter's MAC'd reports left",
	"broker.Brokerd.RevokeUser":  "ue tests revoke a SIM between attaches; the paper's membership revocation",
	"epc.AGW.RebindRAN":          "core tests drive an X2-style handover inside one AGW",
	"sap.TelcoState.Receipts":    "epc, broker and core tests read the receipts a bTelco holds",
	"sap.VerifyReceipt":          "the arbiter's third-party check; epc and broker tests run it on a receipt",
	"ue.Device.Attached":         "epc tests check a device's attachment is gone after a detach",
	"ue.RetryPolicy.Budget":      "testbed's failover test bounds recovery by the retry policy's worst case",
}

// stdMethods are the method names of the standard-library interfaces this
// repository's types implement. The compiler, not a caller, is what uses
// such a method, so the audit skips it.
var stdMethods = map[string]bool{
	"String": true, "Error": true, // fmt.Stringer, error
	"Read": true, "Write": true, "Close": true, // io
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true, // sort, container/heap
}

// TestEveryExportedFuncHasACaller fails when an exported func or method
// declared in non-test code under internal/ is referenced by no non-test
// code in internal/, cmd/, examples/ or benchmark/. "Referenced" is
// syntactic: pkg.F from another package, a bare F inside its own package,
// and .M for a method, whatever the receiver expression. A func naming
// itself does not count, and T.M's .M counts for another type's M only
// while T.M is itself referenced (a delegating wrapper lives by its own
// callers). Such a name is surface with no user: delete it, unexport it
// when only its own package's tests call it, or name in apiKeep the other
// package's tests that need it.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	if len(apiKeep) > 8 {
		t.Fatalf("apiKeep has %d entries; the list is capped at 8", len(apiKeep))
	}
	fset, tree := goTree(t)
	pos := map[string]token.Position{} // "pkg.F" or "pkg.T.M" -> declaration
	funcRefs := map[string]bool{}      // "pkg.F" referenced
	// methodRefs["M"] holds the "pkg.T" of each method T.M that names .M,
	// and "" when anything else does.
	methodRefs := map[string]map[string]bool{}
	type source struct {
		pkg string // directory name under internal/, or ""
		f   *ast.File
	}
	var files []source
	for _, gs := range tree {
		if gs.test || !under(gs.path, "internal", "cmd", "examples", "benchmark") {
			continue
		}
		src := source{f: gs.f}
		if under(gs.path, "internal") {
			src.pkg = path.Base(path.Dir(gs.path))
			for _, d := range gs.f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() && !(fn.Recv != nil && stdMethods[fn.Name.Name]) {
					pos[declKey(src.pkg, fn)] = fset.Position(fn.Pos())
				}
			}
		}
		files = append(files, src)
	}

	for _, src := range files {
		imports := map[string]string{} // local name -> internal package
		for _, imp := range src.f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if name, ok := strings.CutPrefix(ip, "cellbricks/internal/"); ok {
				if imp.Name != nil {
					imports[imp.Name.Name] = name
				} else {
					imports[name] = name
				}
			}
		}
		var self *ast.FuncDecl // the func being walked
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				self = x
				if x.Recv != nil {
					ast.Inspect(x.Recv, visit)
				}
				ast.Inspect(x.Type, visit)
				if x.Body != nil {
					ast.Inspect(x.Body, visit)
				}
				self = nil
				return false
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					funcRefs[imports[id.Name]+"."+x.Sel.Name] = true
					return false
				}
				by := ""
				if self != nil && self.Recv != nil && self.Name.Name == x.Sel.Name {
					by = strings.TrimSuffix(declKey(src.pkg, self), "."+self.Name.Name)
				}
				if methodRefs[x.Sel.Name] == nil {
					methodRefs[x.Sel.Name] = map[string]bool{}
				}
				methodRefs[x.Sel.Name][by] = true
				ast.Inspect(x.X, visit)
				return false
			case *ast.Ident:
				if src.pkg != "" && !(self != nil && self.Recv == nil && self.Name.Name == x.Name) {
					funcRefs[src.pkg+"."+x.Name] = true
				}
			case *ast.Field: // a field or parameter name is no reference
				ast.Inspect(x.Type, visit)
				return false
			case *ast.KeyValueExpr: // nor is a composite literal's field key
				if _, ok := x.Key.(*ast.Ident); ok {
					ast.Inspect(x.Value, visit)
					return false
				}
			case *ast.ValueSpec:
				if x.Type != nil {
					ast.Inspect(x.Type, visit)
				}
				for _, v := range x.Values {
					ast.Inspect(v, visit)
				}
				return false
			case *ast.TypeSpec:
				ast.Inspect(x.Type, visit)
				return false
			}
			return true
		}
		for _, d := range src.f.Decls {
			ast.Inspect(d, visit)
		}
	}

	// live grows to a fixpoint: a method is live once something other than
	// a same-named method names it, or a live (or kept) other type's
	// same-named method does.
	live := map[string]bool{}
	for key := range pos {
		live[key] = funcRefs[key] || apiKeep[key] != ""
	}
	for changed := true; changed; {
		changed = false
		for key := range pos {
			typ, m, isMethod := splitMethod(key)
			if live[key] || !isMethod {
				continue
			}
			for by := range methodRefs[m] {
				if by == "" || (by != typ && live[by+"."+m]) {
					live[key], changed = true, true
					break
				}
			}
		}
	}

	var unused []string
	methods := 0
	for key, p := range pos {
		if _, _, isMethod := splitMethod(key); isMethod {
			methods++
		}
		if !live[key] {
			unused = append(unused, p.String()+": "+key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s: no non-test code in internal/, cmd/, examples/ or benchmark/ references it — delete it, unexport it, or add it to apiKeep with the reason", u)
	}
	for key := range apiKeep {
		// Referenced without the keep entry: live by a caller, not by the list.
		_, m, isMethod := splitMethod(key)
		referenced := funcRefs[key]
		if isMethod {
			for by := range methodRefs[m] {
				referenced = referenced || by == ""
			}
		}
		if _, ok := pos[key]; !ok || referenced {
			t.Errorf("%s is on the keep-list but is gone, or non-test code now references it; drop the entry", key)
		}
	}
	t.Logf("%d exported funcs and methods audited (%d methods), %d kept with a reason", len(pos), methods, len(apiKeep))
}

// declKey names a func declared in package pkg: "pkg.F", or "pkg.T.M" for a
// method of T or *T.
func declKey(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return pkg + "." + fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if s, ok := recv.(*ast.StarExpr); ok {
		recv = s.X
	}
	if g, ok := recv.(*ast.IndexExpr); ok {
		recv = g.X
	}
	return pkg + "." + recv.(*ast.Ident).Name + "." + fn.Name.Name
}

// splitMethod splits "pkg.T.M" into "pkg.T" and "M"; a "pkg.F" is no
// method.
func splitMethod(key string) (typ, m string, ok bool) {
	if strings.Count(key, ".") != 2 {
		return "", "", false
	}
	i := strings.LastIndexByte(key, '.')
	return key[:i], key[i+1:], true
}
