package cellbricks

import (
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
