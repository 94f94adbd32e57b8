package repro

// Shadow lint: a local variable named after an imported package silently
// shadows that package for the rest of the scope (expt.Names once declared
// `reg := Registry()` under a `repro/internal/reg` import). The standard
// `go vet` suite does not include the shadow analyzer and the toolchain
// here is hermetic, so this test enforces the rule with the stdlib AST —
// it fails on any `:=`, var, or range declaration whose name equals an
// imported package name in the same file.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestNoLocalsShadowImportedPackages(t *testing.T) {
	var violations []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || name == ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		violations = append(violations, shadowedImports(t, path)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Errorf("local shadows imported package: %s", v)
	}
}

// shadowedImports parses one file and returns "file:line: name" for every
// local declaration that reuses an imported package name.
func shadowedImports(t *testing.T, path string) []string {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	imported := make(map[string]bool)
	for _, imp := range file.Imports {
		switch {
		case imp.Name != nil:
			// Named imports; `_` and `.` never introduce a shadowable name.
			if imp.Name.Name != "_" && imp.Name.Name != "." {
				imported[imp.Name.Name] = true
			}
		default:
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			imported[filepath.Base(p)] = true
		}
	}
	if len(imported) == 0 {
		return nil
	}
	var out []string
	flag := func(id *ast.Ident) {
		if id != nil && imported[id.Name] {
			pos := fset.Position(id.Pos())
			out = append(out, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, id.Name))
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						flag(id)
					}
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				if id, ok := n.Key.(*ast.Ident); ok {
					flag(id)
				}
				if id, ok := n.Value.(*ast.Ident); ok {
					flag(id)
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, id := range vs.Names {
							flag(id)
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// Reachability lint: DESIGN §11 deletes an internal/ declaration that no
// binary reaches, unless it is an oracle a test compares against, a
// baseline the paper's scheme is measured against, an input a Sec. 5
// ablation sets, or a test seam. Nothing outside the module can import
// internal/, so the binaries (cmd/*, examples/*, e2ebench) are the whole
// API. TestEveryDeclarationReachable links them all with the linker's
// dependency dump and fails on each function or method under internal/
// that no dump names and unreachableKept does not list, and on each
// unreachableKept entry that a binary reaches or no file declares. When
// the linker drops a method an interface requires, no binary calls that
// interface method: drop the method from the interface instead of
// listing it here.

// Reasons shared by several unreachableKept entries.
const (
	keepExposition  = "oracle: the exposition tests, and CI's live scrape of hemserved, parse Prometheus text with it"
	keepDirect      = "baseline: the unregulated direct connection the controllers are compared with"
	keepPO          = "baseline: perturb-and-observe, which the time-based tracker is measured against (Sec. 5)"
	keepSprint      = "oracle: Eq. 12's sprint plan and extra-solar estimate, which the sprint scheduler's tests check against"
	keepEventSource = "input to the fast-forward parity suite, which steps every event source against its closure twin"
)

// unreachableKept lists, with the reason each stays, the functions and
// methods under internal/ that no binary reaches. A name reads as the
// linker's symbol without "repro/internal/": pkg.Func, pkg.T.Method or
// pkg.(*T).Method.
var unreachableKept = map[string]string{
	"metrics.ParseExposition":  keepExposition,
	"metrics.(*Scrape).Family": keepExposition,
	"metrics.(*Sample).Label":  keepExposition,
	"metrics.parseError":       keepExposition,
	"metrics.parseComment":     keepExposition,
	"metrics.parseSample":      keepExposition,
	"metrics.parseLabels":      keepExposition,
	"metrics.isNameChar":       keepExposition,
	"metrics.seriesKey":        keepExposition,
	"metrics.checkHistogram":   keepExposition,

	"pv.(*Cell).CurrentReference": "oracle: the reference bisection the Newton replay matches bit for bit",

	"circuit.DirectConnection.Init":           keepDirect,
	"circuit.DirectConnection.OnStep":         keepDirect,
	"circuit.DirectConnection.OnThreshold":    keepDirect,
	"circuit.DirectConnection.QuiescentUntil": keepDirect,
	"mppt.(*PerturbObserve).Init":             keepPO,
	"mppt.(*PerturbObserve).OnStep":           keepPO,
	"mppt.(*PerturbObserve).OnThreshold":      keepPO,

	"reg.WithSCRatios":                  "Sec. 5 ablation input: the SC converter's ratio set",
	"reg.WithBuckPFM":                   "Sec. 5 ablation input: the buck converter's light-load PFM mode",
	"sched.NewSprintPlan":               keepSprint,
	"sched.SprintPlan.ExtraSolarEnergy": keepSprint,

	"cap.WithLeakage":          "e2ebench's tests build leaky storage with it, and a leakage calibration sweep needs it",
	"cap.(*Capacitor).Leakage": "e2ebench's TestDecoratedStorageForwardsLeakage checks that its storage decorator still exposes it",

	"circuit.Constant.NextChange":             keepEventSource,
	"circuit.StepSource.NextChange":           keepEventSource,
	"circuit.DaySource.NextChange":            keepEventSource,
	"circuit.PiecewiseConstSource.At":         keepEventSource,
	"circuit.PiecewiseConstSource.NextChange": keepEventSource,

	"trace.ValidateAll":           "test seam: checks a whole recorded trace against the schema ReadJSONL enforces line by line",
	"circuit.(*Simulator).Models": "test seam: the fleet and scenario tests check that every lane of a run shares one cell, processor and regulator",
}

func TestEveryDeclarationReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("links every binary with the linker's dependency dump")
	}
	reached := linkedSymbols(t)
	declared := internalFuncs(t)
	for name, pos := range declared {
		_, kept := unreachableKept[name]
		switch {
		case reached[name] && kept:
			t.Errorf("%s: %s is reached by a binary; drop it from unreachableKept", pos, name)
		case !reached[name] && !kept:
			t.Errorf("%s: no binary reaches %s; delete it or list it in unreachableKept with its reason", pos, name)
		}
	}
	for name := range unreachableKept {
		if _, ok := declared[name]; !ok {
			t.Errorf("unreachableKept names %s, which no non-test internal/ file declares", name)
		}
	}
}

// linkedSymbols links cmd/*, examples/* and e2ebench with inlining off, so
// every called function keeps its symbol, and returns the union of the
// internal/ symbols on either side of a dependency edge, named as in
// unreachableKept.
func linkedSymbols(t *testing.T) map[string]bool {
	out := t.TempDir()
	flags := []string{"build", "-gcflags=all=-l", "-ldflags=-dumpdep"}
	builds := []*exec.Cmd{
		exec.Command("go", append(flags, "-o", out+string(filepath.Separator), "./cmd/...", "./examples/...")...),
		exec.Command("go", append(flags, "-o", filepath.Join(out, "e2ebench"), ".")...),
	}
	builds[1].Dir = "e2ebench"
	reached := make(map[string]bool)
	for _, cmd := range builds {
		dump, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s in %q: %v\n%s", cmd, cmd.Dir, err, dump)
		}
		for _, line := range strings.Split(string(dump), "\n") {
			from, to, ok := strings.Cut(line, " -> ")
			if !ok {
				continue
			}
			for _, sym := range []string{from, to} {
				if name, ok := internalSymbol(sym); ok {
					reached[name] = true
				}
			}
		}
	}
	if len(reached) == 0 {
		t.Fatal("the dependency dumps name no internal/ symbol")
	}
	return reached
}

// internalSymbol trims "repro/internal/" and any type arguments from a
// linker symbol. It rejects the argument-info, stack-object, open-defer
// and wrapper-info symbols, which outlive the functions the linker drops.
func internalSymbol(sym string) (string, bool) {
	name, ok := strings.CutPrefix(sym, "repro/internal/")
	if !ok {
		return "", false
	}
	var b strings.Builder
	depth := 0
	for _, r := range name {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	name = b.String()
	dot := strings.LastIndexByte(name, '.')
	switch suffix := name[dot+1:]; {
	case strings.HasPrefix(suffix, "arginfo"), suffix == "argliveinfo",
		suffix == "stkobj", suffix == "opendefer", suffix == "wrapinfo":
		return "", false
	}
	return name, true
}

// internalFuncs returns the position of every named function and method
// declared in a non-test file under internal/, keyed as in unreachableKept.
func internalFuncs(t *testing.T) map[string]string {
	declared := make(map[string]string)
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(strings.TrimPrefix(filepath.Dir(path), "internal"+string(filepath.Separator)))
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "_" || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				name = pkg + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			declared[name] = fset.Position(fn.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

// receiverName renders a method receiver as the linker does: T or (*T),
// without type parameters.
func receiverName(recv ast.Expr) string {
	star, ptr := recv.(*ast.StarExpr)
	if ptr {
		recv = star.X
	}
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	name := recv.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")"
	}
	return name
}
