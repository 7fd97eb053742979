// Package detlint is a determinism lint for the simulator core. The
// whole experiment pipeline — fault-injection replays, the golden smoke
// diffs, the resilience sweep — depends on the simulator being a
// pure function of its inputs, so the timing-critical packages
// (internal/sim, internal/cpu, internal/cache, internal/fault) must not
// read wall-clock time, draw from the process-global random source, or
// let results depend on Go's randomized map iteration order.
//
// The lint is purely syntactic (go/parser + go/ast; no type checker), so
// it over-approximates:
//
//   - "time-now": any call time.Now(...) through the real "time" import;
//   - "global-rand": any call to a math/rand (or math/rand/v2)
//     package-level sampling function (Int, Intn, Float64, Perm,
//     Shuffle, Seed, Read, ...). Constructing a seeded local generator
//     (rand.New, rand.NewSource) stays legal — that is the deterministic
//     idiom the fault injector uses;
//   - "map-range": a for-range over an expression the file itself
//     declares with a map type (var/param/field declarations, make(map),
//     map literals). Iteration order would leak into simulated state.
//
// A finding can be waived where the pattern is provably harmless with a
// "//detlint:ignore <reason>" comment on the flagged line or the line
// above it.
package detlint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Finding is one determinism violation.
type Finding struct {
	Pos  token.Position
	Rule string // "time-now", "global-rand" or "map-range"
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// globalRandFns are the package-level math/rand samplers that draw from
// the shared process-global source.
var globalRandFns = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "IntN": true, "Int32": true,
	"Int32N": true, "Int64": true, "Int64N": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"UintN": true, "Uint": true, "Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Seed": true, "Read": true,
}

// Dir lints every non-test .go file of one directory (one package).
func Dir(dir string) ([]Finding, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		fs, err := Source(path, src)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out, nil
}

// Dirs lints several directories, concatenating findings.
func Dirs(dirs []string) ([]Finding, error) {
	var out []Finding
	for _, d := range dirs {
		fs, err := Dir(d)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	return out, nil
}

// Source lints one file given as source text.
func Source(filename string, src []byte) ([]Finding, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	l := &linter{fset: fset, file: f}
	l.importNames()
	l.collectMapNames()
	l.collectIgnores()
	ast.Inspect(f, l.visit)
	return l.out, nil
}

type linter struct {
	fset *token.FileSet
	file *ast.File

	timePkg  string          // local name of the "time" import ("" if absent)
	randPkg  string          // local name of the math/rand import ("" if absent)
	mapNames map[string]bool // identifiers and field names declared with map types
	ignores  map[int]bool    // lines waived by //detlint:ignore
	out      []Finding
}

// importNames resolves the local names of the time and math/rand imports
// (respecting renames; a dot-import is unsupported and ignored).
func (l *linter) importNames() {
	for _, imp := range l.file.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := filepath.Base(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "." || name == "_" {
			continue
		}
		switch path {
		case "time":
			l.timePkg = name
		case "math/rand", "math/rand/v2":
			l.randPkg = name
		}
	}
}

// collectMapNames walks every declaration of the file and records names
// bound to a syntactic map type: var/const specs and struct fields with
// an explicit map type, function parameters and results, and short
// variable declarations initialized from make(map[...]...) or a map
// composite literal.
func (l *linter) collectMapNames() {
	l.mapNames = map[string]bool{}
	record := func(names []*ast.Ident, typ ast.Expr) {
		if isMapType(typ) {
			for _, n := range names {
				l.mapNames[n.Name] = true
			}
		}
	}
	ast.Inspect(l.file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field: // struct fields, params, results
			record(n.Names, n.Type)
		case *ast.ValueSpec:
			record(n.Names, n.Type)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if typ := mapInitType(rhs); typ != nil {
					l.mapNames[id.Name] = true
				}
			}
		}
		return true
	})
}

// isMapType reports whether the type expression is (a pointer to) a map.
func isMapType(t ast.Expr) bool {
	switch t := t.(type) {
	case *ast.MapType:
		return true
	case *ast.StarExpr:
		return isMapType(t.X)
	}
	return false
}

// mapInitType returns the map type of a make(map[...]) call or a map
// composite literal, else nil.
func mapInitType(e ast.Expr) *ast.MapType {
	switch e := e.(type) {
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) >= 1 {
			if mt, ok := e.Args[0].(*ast.MapType); ok {
				return mt
			}
		}
	case *ast.CompositeLit:
		if mt, ok := e.Type.(*ast.MapType); ok {
			return mt
		}
	}
	return nil
}

// collectIgnores records the lines covered by //detlint:ignore comments:
// the comment's own line and the one after it (so the waiver can sit
// above the flagged statement or trail it).
func (l *linter) collectIgnores() {
	l.ignores = map[int]bool{}
	for _, cg := range l.file.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "detlint:ignore") {
				line := l.fset.Position(c.Pos()).Line
				l.ignores[line] = true
				l.ignores[line+1] = true
			}
		}
	}
}

func (l *linter) add(pos token.Pos, rule, msg string) {
	p := l.fset.Position(pos)
	if l.ignores[p.Line] {
		return
	}
	l.out = append(l.out, Finding{Pos: p, Rule: rule, Msg: msg})
}

func (l *linter) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		sel, ok := n.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Obj != nil { // Obj != nil: a local shadows the import
			return true
		}
		switch {
		case l.timePkg != "" && pkg.Name == l.timePkg && sel.Sel.Name == "Now":
			l.add(n.Pos(), "time-now",
				"wall-clock read: simulated time must come from the cycle counter")
		case l.randPkg != "" && pkg.Name == l.randPkg && globalRandFns[sel.Sel.Name]:
			l.add(n.Pos(), "global-rand",
				"draw from the process-global rand source: use a locally seeded rand.New(rand.NewSource(seed))")
		}
	case *ast.RangeStmt:
		var name string
		switch x := ast.Unparen(n.X).(type) {
		case *ast.Ident:
			name = x.Name
		case *ast.SelectorExpr:
			name = x.Sel.Name
		}
		if name != "" && l.mapNames[name] {
			l.add(n.Pos(), "map-range",
				fmt.Sprintf("iteration over map %q: order is randomized; iterate sorted keys instead", name))
		}
	}
	return true
}
