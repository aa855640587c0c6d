package proto

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestCoreIsSansIO keeps the protocol core a pure state machine: its
// non-test files may not import a clock, a timer, a socket, a lock, a
// random source or either substrate. Whatever needs one belongs in a
// shell, behind the Shell interface.
func TestCoreIsSansIO(t *testing.T) {
	banned := map[string]bool{
		"net": true, "os": true, "sync": true, "time": true, "math/rand": true,
		"mptcp/internal/sim": true, "mptcp/internal/netsim": true,
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if banned[path] || strings.HasPrefix(path, "sync/") || strings.HasPrefix(path, "net/") {
				t.Errorf("%s imports %q: the protocol core must stay sans-I/O", name, path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no source files to check")
	}
}
