// Command deadcode fails when a function declared in a non-test file under
// internal/ is linked into none of the repository's binaries. It builds
// every main package of this module and of perfbench with inlining off
// (-gcflags=all=-l, so a called function keeps its own text symbol), reads
// the text symbols with `go tool nm`, and compares them with the function
// declarations go/parser finds. A function that must stay although no
// binary links it (another package's tests use it, or an interface requires
// it) is listed in allowlist.txt beside this file with its reason; an entry
// that is linked again or no longer declared is stale and fails too.
//
// Usage, from the repository root:
//
//	go run ./cmd/deadcode
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const allowlist = "cmd/deadcode/allowlist.txt"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(1)
	}
}

func run() error {
	allow, err := readAllowlist(allowlist)
	if err != nil {
		return err
	}
	declared, err := declarations()
	if err != nil {
		return err
	}
	linked := map[string]bool{}
	for _, module := range []string{".", "perfbench"} {
		if err := linkedSymbols(module, linked); err != nil {
			return err
		}
	}
	unlinked, stale := check(declared, linked, allow)
	for _, sym := range unlinked {
		fmt.Printf("%s: %s is linked into no binary (delete it, move it into a _test.go file, or allowlist it)\n", declared[sym], sym)
	}
	for _, sym := range stale {
		fmt.Printf("%s: stale entry %s is linked or no longer declared\n", allowlist, sym)
	}
	if len(unlinked)+len(stale) > 0 {
		return fmt.Errorf("%d unlinked functions, %d stale allowlist entries", len(unlinked), len(stale))
	}
	fmt.Printf("deadcode: %d functions declared under internal/, all linked or allowlisted (%d entries)\n", len(declared), len(allow))
	return nil
}

// check returns the declared symbols that are neither linked nor
// allowlisted, and the allowlist entries that are linked or not declared.
func check(declared map[string]string, linked map[string]bool, allow map[string]string) (unlinked, stale []string) {
	for sym := range declared {
		if !linked[sym] && allow[sym] == "" {
			unlinked = append(unlinked, sym)
		}
	}
	for sym := range allow {
		if _, ok := declared[sym]; !ok || linked[sym] {
			stale = append(stale, sym)
		}
	}
	sort.Strings(unlinked)
	sort.Strings(stale)
	return unlinked, stale
}

// readAllowlist parses "symbol reason" lines; blank lines and lines
// starting with # are skipped, and an entry without a reason is an error.
func readAllowlist(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for n, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n+1, sym)
		}
		allow[sym] = reason
	}
	return allow, nil
}

// declarations maps the symbol of every function declared in a non-test
// file under internal/ to its position.
func declarations() (map[string]string, error) {
	out, err := goCmd(".", "list", "-f", `{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}`, "./internal/...")
	if err != nil {
		return nil, err
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	declared := map[string]string{}
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		fields := strings.Fields(line)
		for _, name := range fields[2:] {
			path := filepath.Join(fields[1], name)
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name != "init" && fd.Name.Name != "_" {
					pos := fset.Position(fd.Pos())
					rel, _ := filepath.Rel(wd, pos.Filename)
					declared[symbol(fields[0], fd)] = fmt.Sprintf("%s:%d", rel, pos.Line)
				}
			}
		}
	}
	return declared, nil
}

// symbol is the name `go tool nm` prints for fd's text symbol, with every
// type-argument list written as [...] (see normalize).
func symbol(pkg string, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Type.TypeParams != nil {
		name += "[...]"
	}
	if fd.Recv == nil {
		return pkg + "." + name
	}
	recv := normalize(types.ExprString(fd.Recv.List[0].Type))
	if strings.HasPrefix(recv, "*") {
		recv = "(" + recv + ")"
	}
	return pkg + "." + recv + "." + name
}

// normalize replaces each bracketed type-argument list of an nm symbol,
// such as [go.shape.string] or [go.shape.struct { X []int }], with [...].
func normalize(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			if depth == 0 {
				b.WriteString("[...]")
			}
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// linkedSymbols builds every main package of the module in dir and adds
// the text symbols of each binary to linked.
func linkedSymbols(dir string, linked map[string]bool) error {
	out, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return err
	}
	defer os.RemoveAll(out)
	// With -o naming a directory, go build writes one executable per main
	// package there.
	if _, err := goCmd(dir, "build", "-gcflags=all=-l", "-o", out+string(filepath.Separator), "./..."); err != nil {
		return err
	}
	bins, err := os.ReadDir(out)
	if err != nil {
		return err
	}
	for _, bin := range bins {
		syms, err := goCmd(dir, "tool", "nm", filepath.Join(out, bin.Name()))
		if err != nil {
			return err
		}
		for _, line := range strings.Split(syms, "\n") {
			// "  4a2b40 T ropuf/internal/stats.Mean"; names may hold spaces.
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[normalize(f[2])] = true
			}
		}
	}
	return nil
}

func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return string(out), nil
}
