package cellbricks

import (
	"go/ast"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches the target of a Markdown link or image, up to its fragment.
var mdLink = regexp.MustCompile(`\]\(([^)#\n]+)`)

// TestMarkdownLinksResolve fails when a relative link in a Markdown file of
// the repository names a path that does not exist beside that file. Web and
// mail links are skipped, and so are image references: the paper dumps'
// figures were never extracted.
func TestMarkdownLinksResolve(t *testing.T) {
	files, links := 0, 0
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".md") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		files++
		for _, m := range mdLink.FindAllSubmatch(b, -1) {
			link, _, _ := strings.Cut(string(m[1]), " ") // drop a "title"
			if link == "" || strings.HasPrefix(link, "http") || strings.HasPrefix(link, "mailto:") {
				continue
			}
			switch strings.ToLower(filepath.Ext(link)) {
			case ".jpg", ".jpeg", ".png", ".gif", ".svg":
				continue
			}
			links++
			if _, err := os.Stat(filepath.Join(filepath.Dir(p), link)); err != nil {
				t.Errorf("%s links to %s, which does not resolve", p, link)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d relative links in %d Markdown files checked", links, files)
}

// TestEveryPackageDocumentsItself fails when a package under internal/ has
// no package comment: no non-test file whose doc comment on the package
// clause starts "Package <name> ".
func TestEveryPackageDocumentsItself(t *testing.T) {
	_, tree := goTree(t)
	documented := map[string]bool{} // by directory under internal/
	for _, gs := range tree {
		dir := path.Dir(gs.path)
		if path.Dir(dir) != "internal" {
			continue
		}
		doc := gs.f.Doc
		documented[dir] = documented[dir] || !gs.test && doc != nil && strings.HasPrefix(doc.Text(), "Package "+path.Base(dir)+" ")
	}
	if len(documented) == 0 {
		t.Fatal("found no package under internal/")
	}
	for dir, ok := range documented {
		if !ok {
			name := path.Base(dir)
			t.Errorf("package %s has no package comment (// Package %s ...)", name, name)
		}
	}
}

// docNames are the documents whose backticked pkg.Name references
// TestDocNamesResolve checks. EXPERIMENTS.md is not among them: it is a
// record of per-change notes that name code as it was when each note was
// written, and it is due to be rewritten as one section per result.
var docNames = []string{"DESIGN.md", "README.md", "internal/README.md"}

// docCode matches a backticked span; docRef a pkg.Name or T.Name chain in
// one, not preceded by a path or another selector.
var (
	docCode = regexp.MustCompile("`([^`\n]+)`")
	docRef  = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*|[A-Z]\w*)\.([A-Za-z_]\w*)((?:\.[A-Za-z_]\w*)*)`)
	// metricName is a benchmark metric's name after its layer, as in
	// BENCHMARK.json (`broker.auth_us`): lower snake case, not Go.
	metricName = regexp.MustCompile(`^[a-z0-9]+(_[a-z0-9]+)+$`)
)

// TestDocNamesResolve fails when DESIGN.md, README.md or internal/README.md
// names, in backticks, a pkg.Name whose pkg is a package under internal/ or
// cmd/ and whose Name that package does not declare: no func, method, type,
// var, const or field of that name. For pkg.T.M with T a type, and for a
// bare T.M with T a type some such package declares, M must be a method or
// field of T. Such a reference names code that was renamed or deleted.
func TestDocNamesResolve(t *testing.T) {
	_, tree := goTree(t)
	top := map[string]map[string]bool{}   // pkg -> every name it declares
	types := map[string]map[string]bool{} // "pkg.T" -> method and field names
	member := func(key, name string) {
		if types[key] == nil {
			types[key] = map[string]bool{}
		}
		types[key][name] = true
	}
	for _, gs := range tree {
		if !under(gs.path, "internal", "cmd") {
			continue
		}
		pkg := path.Base(path.Dir(gs.path))
		if top[pkg] == nil {
			top[pkg] = map[string]bool{}
		}
		for _, d := range gs.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				top[pkg][d.Name.Name] = true
				if d.Recv != nil {
					member(strings.TrimSuffix(declKey(pkg, d), "."+d.Name.Name), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							top[pkg][n.Name] = true
						}
					case *ast.TypeSpec:
						top[pkg][s.Name.Name] = true
						types[pkg+"."+s.Name.Name] = types[pkg+"."+s.Name.Name] // a type even with no members
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, f := range st.Fields.List {
							for _, n := range f.Names {
								top[pkg][n.Name] = true
								member(pkg+"."+s.Name.Name, n.Name)
							}
						}
					}
				}
			}
		}
	}
	byType := map[string][]string{} // T -> the packages declaring a type T
	for key := range types {
		pkg, typ, _ := strings.Cut(key, ".")
		byType[typ] = append(byType[typ], pkg)
	}
	refs := 0
	for _, doc := range docNames {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, code := range docCode.FindAllStringSubmatch(line, -1) {
				for _, m := range docRef.FindAllStringSubmatch(code[1], -1) {
					pkg, name := m[1], m[2]
					if pkgs := byType[pkg]; len(pkgs) > 0 { // T.M
						refs++
						found := false
						for _, p := range pkgs {
							found = found || types[p+"."+pkg][name]
						}
						if !found {
							t.Errorf("%s:%d: `%s.%s`: no type %s has a method or field %s", doc, i+1, pkg, name, pkg, name)
						}
						continue
					}
					if top[pkg] == nil || metricName.MatchString(name) {
						continue
					}
					refs++
					ref := pkg + "." + name + m[3]
					if !top[pkg][name] {
						t.Errorf("%s:%d: `%s`: package %s declares no %s", doc, i+1, ref, pkg, name)
						continue
					}
					members, isType := types[pkg+"."+name]
					if sel := strings.Split(m[3], "."); isType && len(sel) > 1 && !members[sel[1]] {
						t.Errorf("%s:%d: `%s`: %s.%s has no method or field %s", doc, i+1, ref, pkg, name, sel[1])
					}
				}
			}
		}
	}
	t.Logf("%d pkg.Name references in %s resolve", refs, strings.Join(docNames, ", "))
}
