package cellbricks

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
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
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			continue
		}
		name, documented := filepath.Base(dir), false
		for _, p := range files {
			if strings.HasSuffix(p, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, p, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			if f.Doc != nil && strings.HasPrefix(f.Doc.Text(), "Package "+name+" ") {
				documented = true
				break
			}
		}
		if !documented {
			t.Errorf("package %s has no package comment (// Package %s ...)", name, name)
		}
	}
}
