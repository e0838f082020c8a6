package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSymbolMatchesNM maps each kind of declaration to the text symbol
// `go tool nm` prints for it (names taken from a Go 1.24 binary built with
// -gcflags=all=-l); after normalize both sides must agree.
func TestSymbolMatchesNM(t *testing.T) {
	cases := []struct {
		name, decl, nm string
	}{
		{"func", "func F() int { return 1 }", "ropuf/internal/p.F"},
		{"value receiver", "func (t T) M() int { return t.n }", "ropuf/internal/p.T.M"},
		{"pointer receiver", "func (t *T) M() int { return t.n }", "ropuf/internal/p.(*T).M"},
		{"unnamed receiver", "func (*T) M() {}", "ropuf/internal/p.(*T).M"},
		{"generic func", "func G[K comparable](k K) bool { return true }", "ropuf/internal/p.G[go.shape.string]"},
		{"generic pointer receiver", "func (s *Set[K]) Add(k K) {}", "ropuf/internal/p.(*Set[go.shape.int]).Add"},
		{"generic value receiver", "func (m Map[K, V]) Get(k K) V { return m.m[k] }", "ropuf/internal/p.Map[go.shape.string,go.shape.struct { X []int }].Get"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			file, err := parser.ParseFile(token.NewFileSet(), "p.go", "package p\n"+c.decl, parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("%s: %v", c.decl, err)
			}
			got := symbol("ropuf/internal/p", file.Decls[0].(*ast.FuncDecl))
			if want := normalize(c.nm); got != want {
				t.Errorf("%s: symbol %q, nm symbol normalizes to %q", c.decl, got, want)
			}
		})
	}
}

func TestNormalizeKeepsPlainNames(t *testing.T) {
	for _, sym := range []string{"ropuf/internal/p.F", "ropuf/internal/p.(*T).M", "ropuf/internal/p.F.func1"} {
		if got := normalize(sym); got != sym {
			t.Errorf("normalize(%q) = %q", sym, got)
		}
	}
}

// TestCheck covers the three outcomes: an unlinked function outside the
// allowlist fails, an allowlisted one passes, and an entry that is linked
// again or whose function is gone is stale.
func TestCheck(t *testing.T) {
	declared := map[string]string{
		"p.Linked":    "p.go:1",
		"p.Unlinked":  "p.go:2",
		"p.Allowed":   "p.go:3",
		"p.Relinked":  "p.go:4",
		"p.(*T).Dead": "p.go:5",
	}
	linked := map[string]bool{"p.Linked": true, "p.Relinked": true, "runtime.main": true}
	allow := map[string]string{
		"p.Allowed":  "used by q's tests",
		"p.Relinked": "used to be unlinked",
		"p.Gone":     "deleted since",
	}
	unlinked, stale := check(declared, linked, allow)
	if want := []string{"p.(*T).Dead", "p.Unlinked"}; !reflect.DeepEqual(unlinked, want) {
		t.Errorf("unlinked = %v, want %v", unlinked, want)
	}
	if want := []string{"p.Gone", "p.Relinked"}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale = %v, want %v", stale, want)
	}
}

func TestReadAllowlist(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.txt")
	body := "# comment\n\nropuf/internal/p.(*T).M  used by q's tests\n"
	if err := os.WriteFile(good, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(good)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]string{"ropuf/internal/p.(*T).M": "used by q's tests"}; !reflect.DeepEqual(allow, want) {
		t.Errorf("allowlist = %v, want %v", allow, want)
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("ropuf/internal/p.F\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAllowlist(bad); err == nil || !strings.Contains(err.Error(), "no reason") {
		t.Errorf("entry without a reason: err = %v", err)
	}
}
