package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// NetDeadline enforces the PR 7 invariant in the wire-protocol packages
// (cacheproto, dbproto): every raw network read or write —
// net.Conn Read/Write, bufio.Reader/bufio.Writer methods, io.ReadFull,
// gob.Encoder.Encode/gob.Decoder.Decode — must be
// dominated, earlier in the same function, by a deadline arm: a direct
// SetDeadline/SetReadDeadline/SetWriteDeadline, or a call to a helper whose
// name mentions Deadline or OpTimeout (armDeadline, withOpTimeout).
//
// Helpers that perform I/O on behalf of already-armed callers opt out with
// //genie:deadlinearmed <why> in their doc comment; the annotation is the
// audit trail for "my caller armed the clock". Without a deadline, one
// stalled peer pins a goroutine (and whatever buffers/locks it holds)
// forever — the slow-client wedge the server's per-request deadlines exist
// to prevent.
var NetDeadline = &Analyzer{
	Name: "netdeadline",
	Doc:  "network reads/writes in cacheproto and dbproto must be deadline-armed",
	Run:  runNetDeadline,
}

// netDeadlinePkgs are the package names (not paths, so fixtures match) the
// analyzer patrols: the ones that own long-lived wire connections.
var netDeadlinePkgs = map[string]bool{
	"cacheproto": true,
	"dbproto":    true,
}

// gobMethodRecv are gob codec types whose Encode/Decode block on the
// underlying connection — the wire I/O of the dbproto protocol.
var gobMethodRecv = map[string]bool{
	"gob.Encoder": true,
	"gob.Decoder": true,
}

// ioMethodNames are bufio.Reader/bufio.Writer methods that move bytes to or
// from the underlying connection (shared with lockscope's blocking-call
// rule).
var ioMethodNames = map[string]bool{
	"Read": true, "ReadByte": true, "ReadBytes": true, "ReadSlice": true,
	"ReadString": true, "ReadLine": true, "ReadRune": true,
	"Write": true, "WriteByte": true, "WriteString": true, "WriteRune": true,
	"Flush": true, "Peek": true, "Discard": true,
}

func runNetDeadline(pass *Pass) error {
	if !netDeadlinePkgs[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || funcDocHasMarker(fn, "deadlinearmed") {
				continue
			}
			checkDeadlineFunc(pass, fn)
		}
	}
	return nil
}

func checkDeadlineFunc(pass *Pass, fn *ast.FuncDecl) {
	// Pass 1: positions of deadline arms in this function.
	var arms []token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := calleeName(call); strings.Contains(name, "Deadline") || strings.Contains(name, "OpTimeout") {
			arms = append(arms, call.Pos())
		}
		return true
	})
	armedBefore := func(pos token.Pos) bool {
		for _, a := range arms {
			if a < pos {
				return true
			}
		}
		return false
	}

	// Pass 2: flag unguarded I/O calls.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // goroutines/closures are separate control flow
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		var what string
		switch {
		case isNetConnExpr(pass.Info, call) && (name == "Read" || name == "Write"):
			what = "net.Conn " + name
		case blockingMethodRecv[recvTypeName(pass.Info, call)] && ioMethodNames[name]:
			what = recvTypeName(pass.Info, call) + "." + name
		case calleePkgPath(pass.Info, call) == "io" && name == "ReadFull":
			what = "io.ReadFull"
		case gobMethodRecv[recvTypeName(pass.Info, call)] && (name == "Encode" || name == "Decode"):
			what = recvTypeName(pass.Info, call) + "." + name
		default:
			return true
		}
		if !armedBefore(call.Pos()) {
			pass.Reportf(call.Pos(), "%s without an earlier Set*Deadline/OpTimeout arm in this function; a stalled peer pins this goroutine forever (annotate //genie:deadlinearmed if the caller arms it)", what)
		}
		return true
	})
}
