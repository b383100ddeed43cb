// Package lint is genielint: a suite of go/ast + go/types driven static
// analyzers that turn this repository's review-time conventions into
// machine-checked invariants. The design mirrors golang.org/x/tools/go/
// analysis (Analyzer / Pass / Diagnostic, want-comment fixtures) but is
// built entirely on the standard library so the module stays
// dependency-free: packages are loaded with `go list -export` and
// typechecked against compiler export data (internal/lint/load.go).
//
// Shipped analyzers (see cmd/genielint):
//
//   - goroleak: `go` statements must show how the goroutine stops — a
//     WaitGroup Done, a channel receive/select/range, an Accept/Serve
//     loop, or a send the spawner receives.
//   - lockscope: every Lock needs a same-function Unlock, and mutexes
//     marked //genie:nonblocking must not be held across blocking calls.
//   - netdeadline: in the wire-protocol packages, raw reads and writes
//     must be dominated by a deadline arm (or carry //genie:deadlinearmed).
//   - obsnaming: metric registrations must follow the cachegenie_* naming
//     and unit-suffix rules (a _seconds name is how a value says it holds
//     nanoseconds), with label keys from a bounded set and label values
//     that trace to bounded sources (constants, indices, node identity) —
//     a wire key or payload interpolated into a label explodes series
//     cardinality.
//
// Allocations are not checked here: bench-smoke measures them, with
// -benchmem gates on the wire and store paths and AllocsPerRun ceilings in
// the packages' tests.
//
// False positives are suppressed in place with
//
//	//genie:nolint <analyzer>[,<analyzer>] -- <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory: a suppression without one is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check, in the shape of x/tools' analysis.Analyzer.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package's load results into an analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics (after //genie:nolint filtering), sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sup := collectNolint(pkg.Fset, pkg.Files, &diags)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		diags = sup.filter(diags)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// nolintRe parses "//genie:nolint a,b -- reason". The reason after "--" is
// required; see collectNolint.
var nolintRe = regexp.MustCompile(`^//\s*genie:nolint\s+([a-z0-9_,]+)\s*(--\s*(.*))?$`)

// suppressions maps file → line → set of analyzer names suppressed there.
type suppressions map[string]map[int]map[string]bool

// collectNolint gathers //genie:nolint comments. A suppression covers its
// own line and, when it is the only thing on its line, the line below it. A
// malformed suppression (no "-- reason") is reported as a diagnostic so
// undocumented escapes can't accumulate.
func collectNolint(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) suppressions {
	sup := suppressions{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, "//genie:nolint") && !strings.HasPrefix(text, "// genie:nolint") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := nolintRe.FindStringSubmatch(text)
				if m == nil || strings.TrimSpace(m[3]) == "" {
					*diags = append(*diags, Diagnostic{
						Analyzer: "nolint",
						Pos:      pos,
						Message:  `malformed suppression: want "//genie:nolint <analyzer>[,<analyzer>] -- <reason>"`,
					})
					continue
				}
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					sup[pos.Filename] = byLine
				}
				names := map[string]bool{}
				for _, n := range strings.Split(m[1], ",") {
					names[strings.TrimSpace(n)] = true
				}
				lines := []int{pos.Line}
				if pos.Column == 1 || onlyCommentOnLine(fset, f, c) {
					lines = append(lines, pos.Line+1)
				}
				for _, ln := range lines {
					if byLine[ln] == nil {
						byLine[ln] = map[string]bool{}
					}
					for n := range names {
						byLine[ln][n] = true
					}
				}
			}
		}
	}
	return sup
}

// onlyCommentOnLine reports whether c starts its source line (a standalone
// comment, which then also suppresses the line below).
func onlyCommentOnLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	pos := fset.Position(c.Pos())
	var onLine bool
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || onLine {
			return false
		}
		if fset.Position(n.Pos()).Line == pos.Line && n.Pos() < c.Pos() {
			if _, isFile := n.(*ast.File); !isFile {
				onLine = true
				return false
			}
		}
		return true
	})
	return !onLine
}

func (s suppressions) filter(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if byLine, ok := s[d.Pos.Filename]; ok {
			if names, ok := byLine[d.Pos.Line]; ok && (names[d.Analyzer] || names["all"]) {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// ---------- shared AST/type helpers used by the analyzers ----------

// funcDocHasMarker reports whether a function's doc comment contains the
// given //genie:<marker> directive.
func funcDocHasMarker(fn *ast.FuncDecl, marker string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(c.Text)
		if strings.HasPrefix(text, "//genie:"+marker) || strings.HasPrefix(text, "// genie:"+marker) {
			return true
		}
	}
	return false
}

// calleeName returns the called function/method's bare name for a call
// expression ("Lock", "Sleep", "armDeadline"), or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// calleePkgPath returns the defining package path of the called function,
// or "" (builtins, type conversions, locals).
func calleePkgPath(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	obj := info.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// recvTypeName resolves a method call's receiver type to "pkgname.Type"
// (pointers stripped), or "".
func recvTypeName(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return ""
	}
	t := tv.Type
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name()
}

// exprText renders a (small) expression back to source-ish text; used to
// pair Lock/Unlock receivers ("sh.mu", "p.mu").
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprText(e.X)
	case *ast.StarExpr:
		return "*" + exprText(e.X)
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	case *ast.CallExpr:
		return exprText(e.Fun) + "(...)"
	}
	return "?"
}
