package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// GoroLeak flags `go` statements that spawn a goroutine with no visible
// lifetime tie: nothing in the spawned body (or, for `go f()` / `go x.m()`
// on an in-package function, in that function's body) shows how the
// goroutine ever stops. Accepted evidence of a tie:
//
//   - a WaitGroup Done call (the spawner, or a Close/Wait elsewhere, joins
//     it);
//   - a channel receive, select, or range over a channel (it parks on a
//     channel the owner closes or signals — the WAL group-commit writer's
//     `for req := range reqCh` is the motivating shape);
//   - a context Err/Deadline check or an Accept/Serve loop (it exits when
//     the context is cancelled or the listener closes);
//   - a send on a channel the spawning function visibly receives from (the
//     `done := make(chan T); go func() { ...; done <- v }(); <-done` join).
//
// A goroutine without any of these outlives every reference to it: it
// cannot be flushed on shutdown, holds its captures forever, and turns
// clean process exit into `kill`. Deliberately process-lifetime goroutines
// opt out with //genie:nolint goroleak -- <why>.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "go statements must show how the goroutine stops (WaitGroup Done, channel receive/select/range, Accept/Serve loop)",
	Run:  runGoroLeak,
}

// goroTieCallees are callee names that count as lifetime evidence on their
// own: joining a WaitGroup, watching a context, or looping on a listener
// that the owner closes to stop the goroutine.
var goroTieCallees = map[string]bool{
	"Done": true, "Accept": true, "Serve": true, "Err": true,
}

func runGoroLeak(pass *Pass) error {
	decls := packageFuncDecls(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			recvChans := receivedChannels(pass, fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if goroTied(pass, g.Call, decls, recvChans, 0) {
					return true
				}
				pass.Reportf(g.Pos(), "goroutine's lifetime is not visibly tied to its owner (no WaitGroup Done, channel receive/select/range, or Accept/Serve loop in the spawned body, and no send on a channel the spawner receives from); it cannot be joined on shutdown (annotate //genie:nolint goroleak if it is deliberately process-lifetime)")
				return true
			})
		}
	}
	return nil
}

// receivedChannels collects the channel objects a function body visibly
// receives from (<-ch, range ch, or a select case on ch): a goroutine that
// sends on one of these is joined by its spawner.
func receivedChannels(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	chans := make(map[types.Object]bool)
	record := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil {
				chans[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				record(n.X)
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					record(n.X)
				}
			}
		}
		return true
	})
	return chans
}

// packageFuncDecls indexes this package's function declarations by their
// types object, so `go x.run()` can be chased into run's body.
func packageFuncDecls(pass *Pass) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name != nil {
				if obj := pass.Info.Defs[fn.Name]; obj != nil {
					decls[obj] = fn
				}
			}
		}
	}
	return decls
}

// goroTied reports whether the spawned call shows lifetime evidence,
// chasing one level of in-package indirection (`go w.run()` → run's body).
func goroTied(pass *Pass, call *ast.CallExpr, decls map[types.Object]*ast.FuncDecl, recvChans map[types.Object]bool, depth int) bool {
	if depth > 2 {
		return false
	}
	// go func() { ... }(): inspect the literal body directly.
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		return bodyShowsTie(pass, lit.Body, decls, recvChans, depth)
	}
	// go f(...) / go x.m(...): chase an in-package declaration.
	if fn := calleeDecl(pass, call, decls); fn != nil && fn.Body != nil {
		return bodyShowsTie(pass, fn.Body, decls, recvChans, depth)
	}
	// Out-of-package callee (go io.Copy(...), go conn.Close()): nothing to
	// inspect, demand an explicit nolint.
	return false
}

func calleeDecl(pass *Pass, call *ast.CallExpr, decls map[types.Object]*ast.FuncDecl) *ast.FuncDecl {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj := pass.Info.Uses[id]
	if fn, ok := obj.(*types.Func); ok {
		// A method of a generic type is used through its instantiation; the
		// declaration belongs to the generic origin.
		obj = fn.Origin()
	}
	if obj == nil {
		return nil
	}
	return decls[obj]
}

// bodyShowsTie scans one function body for lifetime evidence. Calls to
// other in-package functions are chased one more level so a goroutine body
// that just dispatches (`go func() { s.loop() }()`) still resolves.
func bodyShowsTie(pass *Pass, body *ast.BlockStmt, decls map[types.Object]*ast.FuncDecl, recvChans map[types.Object]bool, depth int) bool {
	tied := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tied {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			tied = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				tied = true
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					tied = true
				}
			}
		case *ast.SendStmt:
			if id, ok := n.Chan.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil && recvChans[obj] {
					tied = true
				}
			}
		case *ast.CallExpr:
			name := calleeName(n)
			if goroTieCallees[name] || strings.Contains(name, "Deadline") {
				tied = true
				return false
			}
			if fn := calleeDecl(pass, n, decls); fn != nil && fn.Body != nil && depth < 2 {
				if bodyShowsTie(pass, fn.Body, decls, recvChans, depth+1) {
					tied = true
				}
			}
		}
		return !tied
	})
	return tied
}
