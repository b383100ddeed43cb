package lint

import (
	"go/ast"
	"go/types"
)

// HotPathAlloc flags allocating constructs inside functions whose doc
// comment carries //genie:hotpath — the zero-allocation protocol paths
// (cacheproto server/client request handling, the kvcache []byte entry
// points, obs recording). The -benchmem CI gate measures the property at
// runtime; this analyzer catches the mistake at merge time, in branches a
// benchmark may not cover.
//
// Flagged:
//   - any call into package fmt (fmt.Errorf on a hot branch is the classic
//     regression);
//   - string(b) / []byte(s) conversions, except string(b) in the
//     compiler-recognized non-allocating contexts (switch tag, ==/!=
//     comparison, map index);
//   - function literals (closure capture allocates);
//   - string concatenation with +;
//   - passing a non-pointer-shaped concrete value where an interface is
//     expected (boxing allocates; pointers do not).
//
// Deliberately not flagged: make/append/new and composite literals —
// buffer growth is amortized by reuse and is exactly what the -benchmem
// gate measures; forbidding it statically would outlaw the reusable-buffer
// idiom the hot path is built on.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid allocating constructs in //genie:hotpath functions",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !funcDocHasMarker(fn, "hotpath") {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Info
	var parents []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure in hot path: the captured environment allocates")
			return // don't descend; one finding per literal
		case *ast.BinaryExpr:
			if n.Op.String() == "+" {
				// Report the outermost + of a concat chain once.
				outerConcat := false
				if len(parents) > 0 {
					if pb, ok := parents[len(parents)-1].(*ast.BinaryExpr); ok && pb.Op.String() == "+" {
						outerConcat = true
					}
				}
				if tv, ok := info.Types[n]; ok && isStringType(tv.Type) && tv.Value == nil && !outerConcat {
					pass.Reportf(n.Pos(), "string concatenation allocates in hot path")
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, n, parents)
		}
		parents = append(parents, n)
		ast.Inspect(n, func(child ast.Node) bool {
			if child == n || child == nil {
				return child == n
			}
			walk(child)
			return false
		})
		parents = parents[:len(parents)-1]
	}
	walk(fn.Body)
}

func checkHotCall(pass *Pass, call *ast.CallExpr, parents []ast.Node) {
	info := pass.Info
	// Type conversion?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := info.Types[call.Args[0]].Type
		if src == nil {
			return
		}
		switch {
		case isStringType(dst) && isByteSlice(src):
			if !conversionContextFree(call, parents) {
				pass.Reportf(call.Pos(), "string([]byte) conversion escapes and allocates; keep hot-path keys as []byte")
			}
		case isByteSlice(dst) && isStringType(src):
			pass.Reportf(call.Pos(), "[]byte(string) conversion allocates per call; hoist to a package-level var")
		}
		return
	}
	// fmt.* call?
	if path := calleePkgPath(info, call); path == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s allocates (formatting, boxing); use strconv.Append* / errors.New", calleeName(call))
		return
	}
	// Interface boxing in call args.
	sigTV, ok := info.Types[call.Fun]
	if !ok || sigTV.IsType() {
		return
	}
	sig, ok := sigTV.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if s, ok := last.(*types.Slice); ok {
				paramT = s.Elem()
			}
		case i < sig.Params().Len():
			paramT = sig.Params().At(i).Type()
		}
		if paramT == nil || !types.IsInterface(paramT) {
			continue
		}
		argTV, ok := info.Types[arg]
		if !ok || argTV.Type == nil {
			continue
		}
		at := argTV.Type
		if types.IsInterface(at) || isPointerShaped(at) || argTV.IsNil() {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
			continue
		}
		pass.Reportf(arg.Pos(), "passing %s where %s is expected boxes the value (allocates); pass a pointer or avoid the interface", at, paramT)
	}
}

// conversionContextFree reports whether a string([]byte) conversion sits in
// a context the compiler compiles without allocating: a switch tag, one
// side of ==/!=, or a map index.
func conversionContextFree(call *ast.CallExpr, parents []ast.Node) bool {
	if len(parents) == 0 {
		return false
	}
	switch p := parents[len(parents)-1].(type) {
	case *ast.SwitchStmt:
		return p.Tag == call
	case *ast.BinaryExpr:
		op := p.Op.String()
		return op == "==" || op == "!="
	case *ast.IndexExpr:
		return p.Index == call
	case *ast.CaseClause:
		return true
	}
	return false
}

func isStringType(t types.Type) bool {
	return inTypeSet(t, func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	})
}

func isByteSlice(t types.Type) bool {
	return inTypeSet(t, func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
	})
}

// inTypeSet reports whether pred holds for t or, when t is a type
// parameter, for some type its constraint admits: string(k) on a
// K ~string | ~[]byte copies in the []byte instantiation.
func inTypeSet(t types.Type, pred func(types.Type) bool) bool {
	tp, ok := t.(*types.TypeParam)
	if !ok {
		return pred(t)
	}
	return constraintAdmits(tp.Constraint(), pred)
}

func constraintAdmits(c types.Type, pred func(types.Type) bool) bool {
	iface, ok := c.Underlying().(*types.Interface)
	if !ok {
		return pred(c)
	}
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		switch e := iface.EmbeddedType(i).(type) {
		case *types.Union:
			for j := 0; j < e.Len(); j++ {
				if pred(e.Term(j).Type()) {
					return true
				}
			}
		default:
			if constraintAdmits(e, pred) {
				return true
			}
		}
	}
	return false
}
