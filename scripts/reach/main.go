// Command reach fails when a non-test function of the module is linked into
// no binary and the allowlist below does not name it. It builds every main
// package of the module and of the nested benchmark module with inlining
// off, so that a called function keeps its own text symbol, and looks each
// func declaration of the files go list builds up in the binaries' symbol
// tables (go tool nm). Run it from the module root:
//
//	go run ./scripts/reach
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// allow maps what may stay unlinked to the reason it may. A key names a
// package, a function, a type (which covers its methods) or a method, as
// "importpath.Name" or "importpath.Type.Method"; "*.Method" names a method
// of every type. Three kinds of entry belong here: test support, library API
// that README.md, examples/ or an example test shows, and methods that
// implement an interface a binary links.
var allow = map[string]string{
	"slotsel/internal/testkit": "test support: only _test.go files import it",

	"slotsel.BalancedStrategy":                  "library API: README shows it",
	"slotsel.Replay":                            "library API: README and example_batch_test.go show it",
	"slotsel.NewTraceCollector":                 "library API: README's Observability section shows it",
	"slotsel.CombineCollectors":                 "library API: README's Observability section shows it",
	"slotsel.FindObserved":                      "library API: README's Observability section shows it",
	"slotsel.FindAllWindows":                    "library API: README's Concurrency model section shows it",
	"slotsel/internal/strategy":                 "library API: the facade's Strategy, shown by README and ExampleStrategy",
	"slotsel/internal/generic.Extreme":          "library API: the facade's Extreme, in README's algorithm table",
	"slotsel/internal/baseline.MinWeightSubset": "library API: Extreme's exact solver, reached only through Extreme",

	"*.BatchDone": "implements obs.Collector, which every binary links; only the batch pipeline reports batches",
	"*.String":    "implements fmt.Stringer",
}

// nested are the modules inside the tree whose binaries link the module's
// packages too.
var nested = []string{"benchmark"}

func main() {
	os.Exit(run(".", allow, os.Stdout, os.Stderr))
}

// fn is one non-test func declaration.
type fn struct {
	key    string // importpath.Name or importpath.Type.Name; "main." in a main package
	method string // Name, for a method
	bin    string // the binary a main package builds
	pos    string
	lines  int
}

// run checks the module rooted at dir. It prints each unlinked function the
// allowlist does not cover and each allowlist entry that covers none, and
// returns the exit code: 1 if it printed any, 2 if the check failed.
func run(dir string, allow map[string]string, stdout, stderr io.Writer) int {
	fns, err := declarations(dir)
	var linked map[string]map[string]bool
	if err == nil {
		linked, err = linkedSymbols(dir)
	}
	if err != nil {
		fmt.Fprintln(stderr, "reach:", err)
		return 2
	}
	used := map[string]bool{}
	var bad, unlinked, lines int
	for _, f := range fns {
		if linked[f.bin][f.key] {
			continue
		}
		unlinked++
		lines += f.lines
		if k, ok := allowed(f, allow); ok {
			used[k] = true
			continue
		}
		bad++
		fmt.Fprintf(stdout, "%s: %s is linked by no binary (%d lines)\n", f.pos, f.key, f.lines)
	}
	var stale []string
	for k := range allow {
		if !used[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		bad++
		fmt.Fprintf(stdout, "allowlist entry %s covers no unlinked function\n", k)
	}
	fmt.Fprintf(stdout, "%d of %d functions (%d lines) linked by no binary; %d not allowlisted\n",
		unlinked, len(fns), lines, bad)
	if bad > 0 {
		return 1
	}
	return 0
}

// allowed reports the allowlist entry that covers f: its own key, its
// type, its package, or for a method its name on every type.
func allowed(f fn, allow map[string]string) (string, bool) {
	for k := f.key; ; {
		if _, ok := allow[k]; ok {
			return k, true
		}
		i := strings.LastIndexByte(k, '.')
		if i <= strings.LastIndexByte(k, '/') {
			break
		}
		k = k[:i]
	}
	if _, ok := allow["*."+f.method]; ok && f.method != "" {
		return "*." + f.method, true
	}
	return "", false
}

// declarations lists the func declarations of the files go list builds in
// the module rooted at dir: this platform's, tests left out.
func declarations(dir string) ([]fn, error) {
	list := exec.Command("go", "list", "-f", "{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \"\\t\"}}", "./...")
	list.Dir = dir
	out, err := list.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	var fns []fn
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		p := strings.Split(line, "\t") // import path, package name, dir, files...
		pkg, bin := p[0], ""
		if p[1] == "main" {
			pkg, bin = "main", path.Base(p[0])
		}
		for _, name := range p[3:] {
			file, err := parser.ParseFile(fset, filepath.Join(p[2], name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, decl := range file.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Body == nil || d.Name.Name == "init" || d.Name.Name == "_" {
					continue
				}
				f := fn{key: pkg + "." + d.Name.Name, bin: bin}
				if d.Recv != nil {
					f.key = pkg + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
					f.method = d.Name.Name
				}
				start := fset.Position(d.Pos()).Line
				f.pos = fmt.Sprintf("%s/%s:%d", p[0], name, start)
				f.lines = fset.Position(d.End()).Line - start + 1
				fns = append(fns, f)
			}
		}
	}
	return fns, nil
}

// recvName is the type name of a receiver: T for T, *T, T[P] and *T[P, Q].
func recvName(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	switch t := x.(type) {
	case *ast.IndexExpr:
		x = t.X
	case *ast.IndexListExpr:
		x = t.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return fmt.Sprint(x)
}

// linkedSymbols builds every main package of the module rooted at dir and
// of its nested modules, and returns the normalised text symbols of the
// binaries: those of package main keyed by binary name, all others under "".
func linkedSymbols(dir string) (map[string]map[string]bool, error) {
	tmp, err := os.MkdirTemp("", "reach")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	linked := map[string]map[string]bool{"": {}}
	for i, m := range append([]string{"."}, nested...) {
		if _, err := os.Stat(filepath.Join(dir, m, "go.mod")); err != nil {
			continue
		}
		out := filepath.Join(tmp, fmt.Sprint(i)) + string(filepath.Separator)
		build := exec.Command("go", "build", "-gcflags=all=-l", "-o", out, "./...")
		build.Dir = filepath.Join(dir, m)
		if b, err := build.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("go build in %s: %v\n%s", build.Dir, err, b)
		}
		bins, _ := os.ReadDir(out) // absent when the module has no main package
		for _, b := range bins {
			nm, err := exec.Command("go", "tool", "nm", filepath.Join(out, b.Name())).Output()
			if err != nil {
				return nil, fmt.Errorf("go tool nm %s: %v", b.Name(), err)
			}
			bin := strings.TrimSuffix(b.Name(), ".exe")
			linked[bin] = map[string]bool{}
			for _, line := range strings.Split(string(nm), "\n") {
				if name, ok := textSymbol(line); ok {
					set := linked[""]
					if strings.HasPrefix(name, "main.") {
						set = linked[bin]
					}
					for _, k := range symbolKeys(name) {
						set[k] = true
					}
				}
			}
		}
	}
	return linked, nil
}

// textSymbol returns the name on one line of go tool nm output when the
// symbol is text. A line is "<addr> <type> <name>"; the name runs to the end
// of the line, because the shape of a generic instantiation may contain
// spaces.
func textSymbol(line string) (string, bool) {
	f := strings.SplitN(strings.TrimLeft(line, " "), " ", 3)
	if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
		return "", false
	}
	return f[2], true
}

// symbolKeys normalises a text symbol to the declaration keys it proves
// linked: instantiation brackets and receiver parentheses are dropped, a
// method-value suffix is cut, and a closure proves its enclosing function.
// "p/q.(*T[go.shape.int]).M.func1" yields "p/q.T.M.func1", "p/q.T.M" and
// "p/q.T".
func symbolKeys(name string) []string {
	var b strings.Builder
	depth := 0
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth > 0, c == '(', c == ')', c == '*':
		default:
			b.WriteByte(c)
		}
	}
	s := strings.TrimSuffix(b.String(), "-fm")
	slash := strings.LastIndexByte(s, '/')
	dot := strings.IndexByte(s[slash+1:], '.')
	if dot < 0 {
		return nil
	}
	keys := []string{s}
	for i := len(s) - 1; i > slash+1+dot; i-- {
		if s[i] == '.' {
			keys = append(keys, s[:i])
		}
	}
	return keys
}
