package cellbricks

import (
	"bytes"
	"go/format"
	"os"
	"testing"
)

// TestTreeIsGofmted fails on a .go file of the repository that gofmt would
// rewrite: go/format.Source is gofmt's formatting, import sorting included,
// so this is `gofmt -l .` as a test.
func TestTreeIsGofmted(t *testing.T) {
	_, tree := goTree(t)
	for _, gs := range tree {
		src, err := os.ReadFile(gs.path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", gs.path, err)
			continue
		}
		if !bytes.Equal(src, want) {
			t.Errorf("%s is not gofmt-formatted (run gofmt -w %s)", gs.path, gs.path)
		}
	}
}
