package cellbricks

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// goSource is one parsed .go file of the repository.
type goSource struct {
	path string // slash-separated, from the repository root
	test bool   // a _test.go file
	f    *ast.File
}

var tree struct {
	once  sync.Once
	fset  *token.FileSet
	files []goSource
	err   error
}

// goTree is every .go file of the repository, tests included, parsed with
// its comments once per process for all the root guards, in walk order.
func goTree(t *testing.T) (*token.FileSet, []goSource) {
	t.Helper()
	tree.once.Do(func() {
		tree.fset = token.NewFileSet()
		tree.err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
				if err == nil && d.IsDir() && p == ".git" {
					return filepath.SkipDir
				}
				return err
			}
			f, err := parser.ParseFile(tree.fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			tree.files = append(tree.files, goSource{filepath.ToSlash(p), strings.HasSuffix(p, "_test.go"), f})
			return nil
		})
	})
	if tree.err != nil {
		t.Fatal(tree.err)
	}
	return tree.fset, tree.files
}

// under reports whether p lies in one of the directories roots.
func under(p string, roots ...string) bool {
	for _, r := range roots {
		if strings.HasPrefix(p, r+"/") {
			return true
		}
	}
	return false
}
