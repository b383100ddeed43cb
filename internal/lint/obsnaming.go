package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"
)

// ObsNaming enforces the internal/obs metric-hygiene rules at every
// registration call site (Counter, Gauge, Histogram, *Func, Register*):
//
//   - names are compile-time constants matching cachegenie_[a-z0-9_]+ — a
//     dynamic name is how per-key series (unbounded cardinality) sneak in;
//   - unit suffixes: "seconds"/"bytes" only as the final token (optionally
//     before "total"), never non-base units (nanos, millis, ...) — the
//     registry renders nanosecond-held series as float seconds, so the
//     name must say _seconds;
//   - counters end _total, gauges do not;
//   - histogram/gauge registrations taking an obs.Unit must agree with the
//     name: UnitNanoseconds ⇔ _seconds suffix;
//   - label keys come from the bounded allowlist (node, op, tier).
//     Labels are traced through constants, in-package helpers, Sprintf
//     formats, and simple local assignments; an untraceable labels
//     expression is left alone.
var ObsNaming = &Analyzer{
	Name: "obsnaming",
	Doc:  "metric names/units/labels must follow the cachegenie_* hygiene rules",
	Run:  runObsNaming,
}

var metricNameRe = regexp.MustCompile(`^cachegenie_[a-z0-9]+(_[a-z0-9]+)*$`)

// registryMethods maps obs.Registry method → kind.
var registryMethods = map[string]string{
	"Counter": "counter", "CounterFunc": "counter", "RegisterCounter": "counter",
	"Gauge": "gauge", "GaugeFunc": "gauge", "RegisterGauge": "gauge",
	"CounterFuncUnit": "counter", "GaugeFuncUnit": "gauge",
	"Histogram": "histogram", "RegisterHistogram": "histogram",
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
			checkMetricName(pass, call, kind)
			checkLabelArg(pass, call.Args[1])
			return true
		})
	}
	return nil
}

func checkMetricName(pass *Pass, call *ast.CallExpr, kind string) {
	nameArg := call.Args[0]
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
			pass.Reportf(nameArg.Pos(), "metric name %q uses non-base unit %q; store what you like, but name the rendered base unit (%s)", name, tok, base)
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
	checkUnitAgreement(pass, call, name)
}

// checkUnitAgreement cross-checks an obs.Unit argument against the name
// suffix: values held in nanoseconds render as seconds, so the series name
// must end _seconds — and vice versa.
func checkUnitAgreement(pass *Pass, call *ast.CallExpr, name string) {
	for _, arg := range call.Args {
		tv, ok := pass.Info.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		named, ok := tv.Type.(*types.Named)
		if !ok || named.Obj().Name() != "Unit" || named.Obj().Pkg() == nil {
			continue
		}
		if tv.Value == nil {
			return // dynamic unit: nothing to prove statically
		}
		v, _ := constant.Int64Val(tv.Value)
		hasSeconds := strings.HasSuffix(name, "_seconds") || strings.HasSuffix(name, "_seconds_total")
		if v != 0 && !hasSeconds {
			pass.Reportf(arg.Pos(), "metric %q holds nanoseconds (rendered as seconds) but is not named _seconds", name)
		}
		if v == 0 && hasSeconds {
			pass.Reportf(arg.Pos(), "metric %q is named _seconds but registered UnitNone; values will render as raw integers", name)
		}
		return
	}
}

var labelKeyRe = regexp.MustCompile(`([A-Za-z0-9_]+)="`)

// checkLabelArg extracts label keys from the labels expression and checks
// them against the allowlist. Tracing is best-effort over the shapes the
// repo uses: string constants and concats of them, fmt.Sprintf with a
// constant format, calls to small in-package helpers, and a local variable's
// visible assignments.
func checkLabelArg(pass *Pass, arg ast.Expr) {
	for _, frag := range labelFragments(pass, arg, 0) {
		for _, m := range labelKeyRe.FindAllStringSubmatch(frag, -1) {
			key := m[1]
			if !allowedLabelKeys[key] {
				pass.Reportf(arg.Pos(), "label key %q is not in the bounded label set (node, op, tier); unbounded label values explode series cardinality", key)
			}
		}
	}
}

// labelFragments collects the constant string pieces an expression can
// contribute to a labels value. depth caps helper/assignment recursion.
func labelFragments(pass *Pass, e ast.Expr, depth int) []string {
	if e == nil || depth > 3 {
		return nil
	}
	if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return []string{constant.StringVal(tv.Value)}
	}
	switch e := e.(type) {
	case *ast.BinaryExpr: // `node="` + node + `"`
		return append(labelFragments(pass, e.X, depth), labelFragments(pass, e.Y, depth)...)
	case *ast.ParenExpr:
		return labelFragments(pass, e.X, depth)
	case *ast.CallExpr:
		if calleePkgPath(pass.Info, e) == "fmt" && len(e.Args) > 0 {
			return labelFragments(pass, e.Args[0], depth+1) // Sprintf const format
		}
		return helperReturnFragments(pass, e, depth)
	case *ast.Ident:
		return identAssignFragments(pass, e, depth)
	}
	return nil
}

// helperReturnFragments resolves a call to an in-package helper (nodeLabels,
// opLabels) to the fragments of its return expressions.
func helperReturnFragments(pass *Pass, call *ast.CallExpr, depth int) []string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.Info.Uses[id]
	if obj == nil || obj.Pkg() != pass.Pkg {
		return nil
	}
	var out []string
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != id.Name || fd.Recv != nil || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if ret, ok := n.(*ast.ReturnStmt); ok {
					for _, r := range ret.Results {
						out = append(out, labelFragments(pass, r, depth+1)...)
					}
				}
				return true
			})
		}
	}
	return out
}

// identAssignFragments resolves a local labels variable through every
// assignment to it in the enclosing file.
func identAssignFragments(pass *Pass, id *ast.Ident, depth int) []string {
	obj := pass.Info.Uses[id]
	if obj == nil {
		return nil
	}
	var out []string
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range asg.Lhs {
				l, ok := lhs.(*ast.Ident)
				if !ok || i >= len(asg.Rhs) {
					continue
				}
				if pass.Info.Defs[l] == obj || pass.Info.Uses[l] == obj {
					out = append(out, labelFragments(pass, asg.Rhs[i], depth+1)...)
				}
			}
			return true
		})
	}
	return out
}
