package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"
)

// ObsNaming enforces the internal/obs metric-hygiene rules at every
// registration call site (CounterFunc, GaugeFunc, RegisterHistogram):
//
//   - names are compile-time constants matching cachegenie_[a-z0-9_]+ — a
//     dynamic name is how per-key series (unbounded cardinality) sneak in;
//   - unit suffixes: "seconds"/"bytes" only as the final token (optionally
//     before "total"), never non-base units (nanos, millis, ...) — the
//     registry renders a _seconds series' nanoseconds as float seconds, so
//     the name is the unit;
//   - counters end _total, gauges and histograms do not;
//   - label keys come from the bounded allowlist (node, op, tier);
//   - label values trace to bounded sources, because a per-key or
//     per-payload value under an allowed key ("op" stamped with the cache
//     key, say) explodes series cardinality just as surely as a rogue key.
//
// One walk over the labels argument serves both label rules: valueTracer
// collects the constant fragments the key allowlist reads while it decides
// whether the value is bounded. Every non-constant expression is traced to
// its sources:
//
//   - bounded: compile-time constants, anything integer- or bool-typed
//     (node indices, shard and worker counts — finite by configuration),
//     indexing into constant composite literals, strconv/fmt over bounded
//     operands, in-package helpers and methods whose returns are bounded,
//     and parameters every visible in-package call site feeds bounded
//     arguments;
//   - unbounded: string(...) conversions of byte/rune slices (wire keys,
//     payloads — request-sized data), and anything that reaches one through
//     helpers, locals, or call-site arguments;
//   - everything else (foreign calls, cross-package parameters) is the
//     caller's documented contract and is left alone.
//
// Only provably unbounded values and keys outside the allowlist are
// reported.
var ObsNaming = &Analyzer{
	Name: "obsnaming",
	Doc:  "metric names, units, label keys and label values must follow the cachegenie_* hygiene rules",
	Run:  runObsNaming,
}

var metricNameRe = regexp.MustCompile(`^cachegenie_[a-z0-9]+(_[a-z0-9]+)*$`)

// registryMethods maps obs.Registry method → kind.
var registryMethods = map[string]string{
	"CounterFunc": "counter", "GaugeFunc": "gauge", "RegisterHistogram": "histogram",
}

// nonBaseUnits are tokens that mean "you stored a raw integer and named the
// storage unit"; Prometheus wants base units in the rendered name.
var nonBaseUnits = map[string]string{
	"nanos": "_seconds", "nanoseconds": "_seconds", "ns": "_seconds",
	"micros": "_seconds", "microseconds": "_seconds", "us": "_seconds",
	"millis": "_seconds", "milliseconds": "_seconds", "ms": "_seconds",
	"kb": "_bytes", "mb": "_bytes", "kib": "_bytes", "mib": "_bytes",
}

// allowedLabelKeys is the bounded label vocabulary. Anything else — above
// all a per-key or per-address label — is a cardinality leak.
var allowedLabelKeys = map[string]bool{
	"node": true, "op": true, "tier": true,
}

func runObsNaming(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, ok := registryMethods[calleeName(call)]
			if !ok || recvTypeName(pass.Info, call) != "obs.Registry" || len(call.Args) < 2 {
				return true
			}
			checkMetricName(pass, call.Args[0], kind)
			checkLabels(pass, call.Args[1])
			return true
		})
	}
	return nil
}

func checkMetricName(pass *Pass, nameArg ast.Expr, kind string) {
	tv, ok := pass.Info.Types[nameArg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(nameArg.Pos(), "metric name must be a compile-time string constant so the series set stays auditable")
		return
	}
	name := constant.StringVal(tv.Value)
	if !metricNameRe.MatchString(name) {
		pass.Reportf(nameArg.Pos(), "metric name %q must match cachegenie_[a-z0-9_]+", name)
		return
	}
	tokens := strings.Split(name, "_")
	last := tokens[len(tokens)-1]
	for i, tok := range tokens {
		if base, bad := nonBaseUnits[tok]; bad {
			pass.Reportf(nameArg.Pos(), "metric name %q uses non-base unit %q; name the rendered base unit (%s), and note a _seconds series must hold nanoseconds", name, tok, base)
			return
		}
		if (tok == "seconds" || tok == "bytes") && i != len(tokens)-1 && !(i == len(tokens)-2 && last == "total") {
			pass.Reportf(nameArg.Pos(), "metric name %q: unit %q must be the final suffix (optionally before _total)", name, tok)
			return
		}
	}
	switch kind {
	case "counter":
		if last != "total" {
			pass.Reportf(nameArg.Pos(), "counter %q must end in _total", name)
		}
	case "gauge", "histogram":
		if last == "total" {
			pass.Reportf(nameArg.Pos(), "%s %q must not end in _total (that suffix means monotonic counter)", kind, name)
		}
	}
}

var labelKeyRe = regexp.MustCompile(`([A-Za-z0-9_]+)="`)

// checkLabels traces the labels expression once, then checks the keys in
// its constant fragments against the allowlist and reports a provably
// unbounded value.
func checkLabels(pass *Pass, arg ast.Expr) {
	tr := &valueTracer{pass: pass, seen: map[types.Object]bool{}}
	bnd, why := tr.trace(arg, 0)
	reported := map[string]bool{}
	for _, frag := range tr.frags {
		for _, m := range labelKeyRe.FindAllStringSubmatch(frag, -1) {
			key := m[1]
			if !allowedLabelKeys[key] && !reported[key] {
				reported[key] = true
				pass.Reportf(arg.Pos(), "label key %q is not in the bounded label set (node, op, tier); unbounded label values explode series cardinality", key)
			}
		}
	}
	if bnd == bndUnbounded {
		pass.Reportf(arg.Pos(),
			"unbounded label value: %s; every distinct value is a new series, so label values must trace to bounded sources (constants, indices, node identity)", why)
	}
}

type boundedness int

const (
	bndBounded boundedness = iota
	bndUnknown             // untraceable: deferred to the caller's contract
	bndUnbounded
)

func joinBnd(a, b boundedness, aWhy, bWhy string) (boundedness, string) {
	if b > a {
		return b, bWhy
	}
	return a, aWhy
}

// valueTracer walks label-value dataflow, collecting every constant string
// it meets into frags. seen breaks reference cycles through parameters and
// locals; maxTraceDepth caps helper/call-site recursion.
type valueTracer struct {
	pass  *Pass
	seen  map[types.Object]bool
	frags []string
}

const maxTraceDepth = 4

func (t *valueTracer) trace(e ast.Expr, depth int) (boundedness, string) {
	if e == nil || depth > maxTraceDepth {
		return bndUnknown, ""
	}
	if tv, ok := t.pass.Info.Types[e]; ok {
		if tv.Value != nil {
			if tv.Value.Kind() == constant.String {
				t.frags = append(t.frags, constant.StringVal(tv.Value))
			}
			return bndBounded, ""
		}
		if b, ok := tv.Type.Underlying().(*types.Basic); ok &&
			b.Info()&(types.IsInteger|types.IsBoolean) != 0 {
			return bndBounded, ""
		}
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return t.trace(e.X, depth)
	case *ast.BinaryExpr:
		xb, xw := t.trace(e.X, depth)
		yb, yw := t.trace(e.Y, depth)
		return joinBnd(xb, yb, xw, yw)
	case *ast.CompositeLit:
		bnd, why := bndBounded, ""
		for _, el := range e.Elts {
			eb, ew := t.trace(el, depth)
			bnd, why = joinBnd(bnd, eb, why, ew)
		}
		return bnd, why
	case *ast.IndexExpr:
		// Indexing yields an element of the indexed collection; the index
		// itself cannot widen the value set.
		return t.trace(e.X, depth)
	case *ast.CallExpr:
		return t.traceCall(e, depth)
	case *ast.Ident:
		return t.traceIdent(e, depth)
	}
	return bndUnknown, ""
}

func (t *valueTracer) traceCall(call *ast.CallExpr, depth int) (boundedness, string) {
	// Type conversion: string(x) over a byte/rune slice is the flagship
	// leak — it is how request-sized data (wire keys, payloads) becomes a
	// string. Other conversions trace their operand.
	if tv, ok := t.pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if at, ok := t.pass.Info.Types[call.Args[0]]; ok && at.Type != nil {
			if _, isSlice := at.Type.Underlying().(*types.Slice); isSlice {
				return bndUnbounded, "string(" + exprText(call.Args[0]) + ") converts request-sized data"
			}
		}
		return t.trace(call.Args[0], depth)
	}
	switch calleePkgPath(t.pass.Info, call) {
	case "fmt", "strconv":
		// Formatting never widens the value set beyond its operands.
		bnd, why := bndBounded, ""
		for _, a := range call.Args {
			ab, aw := t.trace(a, depth)
			bnd, why = joinBnd(bnd, ab, why, aw)
		}
		return bnd, why
	}
	// In-package helper or method: its returns are the value.
	if fd := t.calleeDecl(call); fd != nil && fd.Body != nil {
		bnd, why := bndBounded, ""
		found := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			found = true
			for _, r := range ret.Results {
				rb, rw := t.trace(r, depth+1)
				bnd, why = joinBnd(bnd, rb, why, rw)
			}
			return true
		})
		if !found {
			return bndUnknown, ""
		}
		if why == "" {
			why = "helper " + fd.Name.Name + " returns an unbounded value"
		}
		return bnd, why
	}
	return bndUnknown, ""
}

func (t *valueTracer) traceIdent(id *ast.Ident, depth int) (boundedness, string) {
	obj := t.pass.Info.Uses[id]
	if obj == nil || t.seen[obj] {
		return bndUnknown, ""
	}
	t.seen[obj] = true
	defer delete(t.seen, obj)

	if fd, idx := t.paramOwner(obj); fd != nil {
		return t.traceParam(fd, idx, id.Name, depth)
	}
	// Local variable: as bounded as everything ever assigned to it
	// (including its declaration).
	bnd, why := bndBounded, ""
	found := false
	for _, f := range t.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					l, ok := lhs.(*ast.Ident)
					if !ok || i >= len(n.Rhs) {
						continue
					}
					if t.pass.Info.Defs[l] == obj || t.pass.Info.Uses[l] == obj {
						found = true
						ab, aw := t.trace(n.Rhs[i], depth+1)
						bnd, why = joinBnd(bnd, ab, why, aw)
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if t.pass.Info.Defs[name] == obj && i < len(n.Values) {
						found = true
						vb, vw := t.trace(n.Values[i], depth+1)
						bnd, why = joinBnd(bnd, vb, why, vw)
					}
				}
			}
			return true
		})
	}
	if !found {
		return bndUnknown, ""
	}
	return bnd, why
}

// traceParam resolves a function parameter through every visible in-package
// call site: the parameter is reachable with whatever its callers pass. No
// visible call sites means the boundedness is the (cross-package) caller's
// contract — deferred.
func (t *valueTracer) traceParam(fd *ast.FuncDecl, idx int, name string, depth int) (boundedness, string) {
	fobj := t.pass.Info.Defs[fd.Name]
	if fobj == nil {
		return bndUnknown, ""
	}
	bnd, why := bndBounded, ""
	found := false
	for _, f := range t.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || calleeObj(t.pass.Info, call) != fobj || idx >= len(call.Args) {
				return true
			}
			found = true
			ab, aw := t.trace(call.Args[idx], depth+1)
			if aw == "" && ab == bndUnbounded {
				aw = "a call site passes an unbounded value"
			}
			if ab == bndUnbounded && aw != "" {
				aw = "parameter " + name + " is reachable with an unbounded value (" + aw + ")"
			}
			bnd, why = joinBnd(bnd, ab, why, aw)
			return true
		})
	}
	if !found {
		return bndUnknown, ""
	}
	return bnd, why
}

// paramOwner finds the FuncDecl that declares obj as a parameter and obj's
// flat index among the parameters (receiver excluded, matching call-site
// argument positions).
func (t *valueTracer) paramOwner(obj types.Object) (*ast.FuncDecl, int) {
	for _, f := range t.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Type.Params == nil {
				continue
			}
			idx := 0
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					if t.pass.Info.Defs[name] == obj {
						return fd, idx
					}
					idx++
				}
				if len(field.Names) == 0 {
					idx++
				}
			}
		}
	}
	return nil, 0
}

// calleeObj resolves a call's target to its types object (functions and
// methods alike), or nil.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// calleeDecl finds the in-package FuncDecl a call targets, or nil.
func (t *valueTracer) calleeDecl(call *ast.CallExpr) *ast.FuncDecl {
	obj := calleeObj(t.pass.Info, call)
	if obj == nil || obj.Pkg() != t.pass.Pkg {
		return nil
	}
	for _, f := range t.pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && t.pass.Info.Defs[fd.Name] == obj {
				return fd
			}
		}
	}
	return nil
}
