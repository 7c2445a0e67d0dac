package cellbricks

import (
	"go/ast"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// series is one metric registered in non-test code under internal/ or cmd/.
type series struct {
	name   string
	pos    string
	handle string // "pkg.field" for a handle held in the package's mtr struct, else ""
	update bool   // some non-test code touches the handle beyond registering it
}

// textReaders are the non-Go files whose mention of a series counts as
// reading it, besides every file under benchmark/ and cmd/.
var textReaders = []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}

// TestEveryMetricHasAWriterAndAReader fails on a metric series registered in
// non-test code under internal/ or cmd/ that either no non-test code updates
// or nothing reads. A reader is a _test.go file with a string literal naming
// the series or a selector of its mtr.field handle in the package that holds
// it; a file under benchmark/ or cmd/ naming it; or one of textReaders naming
// it. A series only a scrape of the whole registry would show is delete
// material: no result, gate or drive looks at it. Each handle lives in its
// package's mtr struct, which is how "updates" is told from "registers".
func TestEveryMetricHasAWriterAndAReader(t *testing.T) {
	fset, tree := goTree(t)
	var regs []*series
	byHandle := map[string]*series{}
	for _, gs := range tree {
		if gs.test || !under(gs.path, "internal", "cmd") {
			continue
		}
		ast.Inspect(gs.f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				name := registeredName(rhs)
				if name == "" {
					continue
				}
				s := &series{name: name, pos: fset.Position(rhs.Pos()).String()}
				if fld := mtrField(as.Lhs[i]); fld != "" {
					s.handle = path.Dir(gs.path) + "." + fld
					byHandle[s.handle] = s
				}
				regs = append(regs, s)
			}
			return true
		})
	}
	if len(regs) == 0 {
		t.Fatal("found no registered metric series")
	}

	read := map[string]bool{} // series names, and handles as "pkg.field"
	for _, gs := range tree {
		p, f, test := gs.path, gs.f, gs.test
		if !test && !under(p, "internal", "cmd") {
			continue
		}
		// Assignment targets (registration, or a package nilling its handles)
		// neither update nor read a handle.
		lhs := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, e := range as.Lhs {
					lhs[e] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BasicLit:
				if test && x.Kind == token.STRING {
					if s, err := strconv.Unquote(x.Value); err == nil {
						for _, r := range regs {
							if mentions(s, r.name) {
								read[r.name] = true
							}
						}
					}
				}
			case *ast.SelectorExpr:
				fld := mtrField(x)
				if fld == "" || lhs[x] {
					return true
				}
				key := path.Dir(p) + "." + fld
				if test {
					read[key] = true
				} else if s := byHandle[key]; s != nil {
					s.update = true
				}
			}
			return true
		})
	}
	var texts []string
	for _, root := range []string{"benchmark", "cmd"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				if p == filepath.Join("benchmark", "out") {
					return filepath.SkipDir // spans a run wrote, not a reader
				}
				return err
			}
			texts = append(texts, p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	texts = append(texts, textReaders...)
	for _, p := range texts {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range regs {
			if mentions(string(b), r.name) {
				read[r.name] = true
			}
		}
	}

	sort.Slice(regs, func(i, j int) bool { return regs[i].name < regs[j].name })
	bad := 0
	for _, r := range regs {
		if r.handle == "" {
			bad++
			t.Errorf("%s: %s is registered outside its package's mtr struct; hold the handle there", r.pos, r.name)
		} else if !r.update {
			bad++
			t.Errorf("%s: %s is registered but no non-test code updates it; delete it", r.pos, r.name)
		}
		if !read[r.name] && !read[r.handle] {
			bad++
			t.Errorf("%s: %s has no reader (a test naming it or selecting its handle, benchmark/, cmd/, ci.yml or the verify skill); delete it, or assert its value in a test", r.pos, r.name)
		}
	}
	t.Logf("%d registered series, %d findings", len(regs), bad)
}

// registeredName is the series name e registers — the string literal first
// argument of a Counter, Gauge or Histogram method call — or "".
func registeredName(e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Counter" && sel.Sel.Name != "Gauge" && sel.Sel.Name != "Histogram") {
		return ""
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return ""
	}
	name, _ := strconv.Unquote(lit.Value)
	return name
}

// mtrField is F when e is mtr.F, else "".
func mtrField(e ast.Expr) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if x, ok := sel.X.(*ast.Ident); ok && x.Name == "mtr" {
		return sel.Sel.Name
	}
	return ""
}

var seriesWords = map[string]*regexp.Regexp{}

// mentions reports whether text names series as a whole word.
func mentions(text, name string) bool {
	if !strings.Contains(text, name) {
		return false
	}
	re := seriesWords[name]
	if re == nil {
		re = regexp.MustCompile(`(^|[^A-Za-z0-9_])` + regexp.QuoteMeta(name) + `($|[^A-Za-z0-9_])`)
		seriesWords[name] = re
	}
	return re.MatchString(text)
}
