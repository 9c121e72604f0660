package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTextSymbol(t *testing.T) {
	for _, tc := range []struct {
		line, name string
		ok         bool
	}{
		{"  4a1b20 T slotsel/internal/core.(*Scanner).Find", "slotsel/internal/core.(*Scanner).Find", true},
		{"  4a1b20 t slotsel/internal/core.approx", "slotsel/internal/core.approx", true},
		// The shape of a generic instantiation may contain spaces: the name
		// runs to the end of the line.
		{`  5c0e40 T slotsel/internal/persist.decodeFirst[go.shape.struct { Version int "json:\"version\"" }]`,
			`slotsel/internal/persist.decodeFirst[go.shape.struct { Version int "json:\"version\"" }]`, true},
		{"  62c3a0 D slotsel/internal/core.visitWrap", "", false},
		{"  62c3a0 R slotsel/internal/core..stmp_1", "", false},
		{"           U slotsel/internal/core.Undefined", "", false},
	} {
		name, ok := textSymbol(tc.line)
		if name != tc.name || ok != tc.ok {
			t.Errorf("textSymbol(%q) = %q, %v; want %q, %v", tc.line, name, ok, tc.name, tc.ok)
		}
	}
}

func TestSymbolKeys(t *testing.T) {
	for _, tc := range []struct {
		sym  string
		want string // the declaration key the symbol must prove linked
	}{
		{`slotsel/internal/persist.decodeFirst[go.shape.struct { Version int "json:\"version\"" }]`, "slotsel/internal/persist.decodeFirst"},
		{"slotsel/internal/core.(*Scanner).Find", "slotsel/internal/core.Scanner.Find"},
		{"slotsel/internal/core.Window.Finish", "slotsel/internal/core.Window.Finish"},
		{"slotsel/internal/slots.(*Seq[go.shape.*uint8]).Edit", "slotsel/internal/slots.Seq.Edit"},
		{"slotsel/internal/slots.Pair[go.shape.int,go.shape.struct { A []int }].Len", "slotsel/internal/slots.Pair.Len"},
		{"slotsel/internal/core.(*Scanner).Find.func1", "slotsel/internal/core.Scanner.Find"},
		{"slotsel/internal/obs.(*Trace).Span-fm", "slotsel/internal/obs.Trace.Span"},
		{"slotsel.Find", "slotsel.Find"},
		{"main.run", "main.run"},
	} {
		keys := symbolKeys(tc.sym)
		found := false
		for _, k := range keys {
			found = found || k == tc.want
		}
		if !found {
			t.Errorf("symbolKeys(%q) = %q, missing %q", tc.sym, keys, tc.want)
		}
	}
	// A symbol names no package of ours unless it has a package path.
	if keys := symbolKeys("runtime"); keys != nil {
		t.Errorf("symbolKeys(%q) = %q, want none", "runtime", keys)
	}
}

func TestAllowed(t *testing.T) {
	allow := map[string]string{
		"m/p.T":       "a type",
		"m/q":         "a package",
		"m.F":         "a function",
		"*.String":    "a method on every type",
		"m/p.U.Exact": "one method",
	}
	for _, tc := range []struct {
		f     fn
		entry string
	}{
		{fn{key: "m/p.T.Method", method: "Method"}, "m/p.T"},
		{fn{key: "m/q.R.Method", method: "Method"}, "m/q"},
		{fn{key: "m/q.G"}, "m/q"},
		{fn{key: "m.F"}, "m.F"},
		{fn{key: "m/p.U.String", method: "String"}, "*.String"},
		{fn{key: "m/p.U.Exact", method: "Exact"}, "m/p.U.Exact"},
		{fn{key: "m/p.U.Other", method: "Other"}, ""},
		{fn{key: "m/p.String"}, ""}, // a function named String is no method
		{fn{key: "m/p.TT"}, ""},
		{fn{key: "m.G"}, ""},
	} {
		entry, ok := allowed(tc.f, allow)
		if entry != tc.entry || ok != (tc.entry != "") {
			t.Errorf("allowed(%q) = %q, %v; want %q", tc.f.key, entry, ok, tc.entry)
		}
	}
}

// fixture is a module with one binary, one function nothing calls, and an
// unlinked type whose methods only the allowlist can excuse.
var fixture = map[string]string{
	"go.mod": "module fixture\n\ngo 1.22\n",
	"lib/lib.go": `package lib

func Used() int { return 1 }

func Planted() int { return 2 }

type T struct{}

func (T) M() int  { return 3 }
func (*T) N() int { return 4 }
`,
	"cmd/app/main.go": `package main

import "fixture/lib"

func main() { println(lib.Used() + helper()) }

func helper() int { return 5 }

func unusedHelper() int { return 6 }
`,
}

func writeFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range fixture {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestFixtureModule(t *testing.T) {
	dir := writeFixture(t)
	check := func(allow map[string]string) (int, string) {
		var out, errOut strings.Builder
		code := run(dir, allow, &out, &errOut)
		if code == 2 {
			t.Fatalf("run failed: %s", errOut.String())
		}
		return code, out.String()
	}

	code, out := check(map[string]string{"fixture/lib.T": "an allowlisted type covers its methods"})
	if code != 1 {
		t.Errorf("exit %d with a planted unused function, want 1:\n%s", code, out)
	}
	for _, want := range []string{
		"fixture/lib/lib.go:5: fixture/lib.Planted is linked by no binary",
		"fixture/cmd/app/main.go:9: main.unusedHelper is linked by no binary",
		"4 of 7 functions",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	for _, linked := range []string{"lib.Used", "main.helper", "main.main", "lib.T.M", "lib.T.N"} {
		if strings.Contains(out, linked+" ") {
			t.Errorf("output names %s:\n%s", linked, out)
		}
	}

	code, out = check(map[string]string{
		"fixture/lib.T":       "type",
		"fixture/lib.Planted": "function",
		"main.unusedHelper":   "main-package function",
	})
	if code != 0 {
		t.Errorf("exit %d with every unlinked function allowlisted, want 0:\n%s", code, out)
	}

	code, out = check(map[string]string{
		"fixture/lib":       "package",
		"main.unusedHelper": "main-package function",
		"fixture/lib.Gone":  "stale",
	})
	if code != 1 || !strings.Contains(out, "allowlist entry fixture/lib.Gone covers no unlinked function") {
		t.Errorf("exit %d, want 1 naming the stale entry:\n%s", code, out)
	}
}
