package cellbricks

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// configKeep names the option fields that no binary, benchmark workload or
// example sets, each with the reason it is a field and not a constant. A
// field off this list survives only while some non-test caller sets it.
var configKeep = map[string]string{
	"testbed.Scenario.SoftHandover":   "DESIGN.md ablation: make-before-break handover",
	"testbed.Scenario.BrokerDownAt":   "DESIGN.md ablation: broker outage start",
	"testbed.Scenario.BrokerDownFor":  "DESIGN.md ablation: broker outage length",
	"testbed.Scenario.MNOOutage":      "DESIGN.md ablation: MNO handover interruption",
	"testbed.StormConfig.SpikeAt":     "the pinned small-storm test config moves the spike",
	"testbed.StormConfig.SpikeDur":    "the pinned small-storm test config shortens the spike",
	"testbed.StormConfig.Window":      "the pinned small-storm test config sets the batch window",
	"testbed.StormConfig.ReportEvery": "the pinned small-storm test config sets the billing cycle",
	"testbed.StormConfig.Admission":   "the pinned small-storm test config tightens admission",
	"testbed.ByzantineConfig.CellBps": "soak tests shrink the cell to reach congestion quickly",
	"broker.Config.MaxPricePerGB":     "price-cap denial is a paper policy only tests exercise",
	"epc.AGWConfig.Intercept":         "the lawful-intercept tap is a paper feature only tests drive",
	"wire.Options.CallTimeout":        "fault detection: a stalled peer must break the connection",
	"wire.Options.Dialer":             "the seam chaos.FaultyConn plugs into",
	"wire.ServerOptions.IdleTimeout":  "fault detection: a dead peer must not hold a goroutine forever",
}

// TestEveryConfigFieldHasACaller fails when an exported field of a
// *Config / *Options / *Policy / Scenario / Runner struct under internal/ is
// set by no non-test code. "Set" is syntactic: a composite-literal key of that
// type, or an assignment to (or address of) a field of that name in a file
// that can name the type's package; a type's own Defaults / WithDefaults
// method (either case) filling its receiver does not count. Such a field is
// a constant with extra steps: make it one, or name its reason in
// configKeep.
func TestEveryConfigFieldHasACaller(t *testing.T) {
	if len(configKeep) > 16 {
		t.Fatalf("configKeep has %d entries; the list is capped at 16", len(configKeep))
	}
	fset := token.NewFileSet()
	fields := map[string][]string{} // "pkg.Type" -> exported field names
	set := map[string]bool{}        // "pkg.Type.Field" -> has a setter
	var files []*ast.File
	for _, root := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
			if root != "internal" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy") || name == "Scenario" || name == "Runner") {
					return false
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fields[f.Name.Name+"."+name] = append(fields[f.Name.Name+"."+name], id.Name)
						}
					}
				}
				return false
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, f := range files {
		visible := map[string]bool{f.Name.Name: true} // packages this file can name
		for _, imp := range f.Imports {
			visible[path.Base(strings.Trim(imp.Path.Value, `"`))] = true
		}
		// typeName resolves T and pkg.T through [], map and *.
		typeName := func(e ast.Expr) string {
			for {
				switch x := e.(type) {
				case *ast.ArrayType:
					e = x.Elt
				case *ast.MapType:
					e = x.Value
				case *ast.StarExpr:
					e = x.X
				case *ast.Ident:
					return f.Name.Name + "." + x.Name
				case *ast.SelectorExpr:
					if p, ok := x.X.(*ast.Ident); ok {
						return p.Name + "." + x.Sel.Name
					}
					return ""
				default:
					return ""
				}
			}
		}
		// Inside T's Defaults method: T, and the receiver it fills.
		own, recv := "", ""
		// x.F = v has no syntactic type: it counts for every audited type
		// with a field F in a package this file can name.
		byName := func(e ast.Expr) {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == recv {
				return
			}
			for typ, names := range fields {
				if !visible[typ[:strings.IndexByte(typ, '.')]] {
					continue
				}
				for _, name := range names {
					if name == sel.Sel.Name {
						set[typ+"."+name] = true
					}
				}
			}
		}
		var literal func(cl *ast.CompositeLit, elided string)
		literal = func(cl *ast.CompositeLit, elided string) {
			typ := elided
			if cl.Type != nil {
				typ = typeName(cl.Type)
			}
			for _, el := range cl.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok && typ != own {
						set[typ+"."+k.Name] = true
					}
					el = kv.Value
				}
				if inner, ok := el.(*ast.CompositeLit); ok && inner.Type == nil {
					literal(inner, typ)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				own, recv = "", ""
				if x.Recv != nil && len(x.Recv.List[0].Names) == 1 && (strings.EqualFold(x.Name.Name, "defaults") || strings.EqualFold(x.Name.Name, "withDefaults")) {
					own, recv = typeName(x.Recv.List[0].Type), x.Recv.List[0].Names[0].Name
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					byName(lhs)
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					byName(x.X)
				}
			case *ast.CompositeLit:
				if x.Type != nil {
					literal(x, "")
				}
			}
			return true
		})
	}

	total, declared := 0, map[string]bool{}
	var unset []string
	for typ, names := range fields {
		total += len(names)
		for _, name := range names {
			key := typ + "." + name
			declared[key] = true
			if !set[key] && configKeep[key] == "" {
				unset = append(unset, key)
			}
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("%s: no binary, benchmark workload or example sets it — make it a constant, or add it to configKeep with the reason", key)
	}
	for key := range configKeep {
		if !declared[key] || set[key] {
			t.Errorf("%s is on the keep-list but is gone, or a non-test caller now sets it; drop the entry", key)
		}
	}
	t.Logf("%d audited fields in %d types, %d kept with a reason", total, len(fields), len(configKeep))
}
