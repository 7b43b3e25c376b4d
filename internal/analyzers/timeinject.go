package analyzers

import (
	"go/ast"
	"go/types"
)

// TimeInject keeps clock-injected state machines deterministic. The
// service's overload machinery — circuit breaker, CoDel controller, token
// bucket — is testable precisely because time flows in as an explicit
// `now time.Time` argument and the wall clock is read only at the service
// boundary. A time.Now() or time.Since() smuggled into one of
// those state machines silently re-couples its tests to the scheduler.
//
// The contract is structural, not a file list: a function or method with a
// parameter named now of type time.Time declares itself clock-injected, and
// a named type with at least one clock-injected method is a clock-injected
// state machine. Findings are wall-clock reads (time.Now, time.Since)
// inside any clock-injected function or any method of a clock-injected
// type — including its methods that forgot to take now, which is how drift
// starts. Types whose methods take time under another name (the Server's
// dispatched time.Time) are boundary code and stay out of scope by
// construction.
var TimeInject = &Analyzer{
	Name: "timeinject",
	Doc:  "clock-injected state machines (methods taking `now time.Time`) must not call time.Now/time.Since directly",
	Run:  runTimeInject,
}

func runTimeInject(pass *Pass) error {
	// First pass: find clock-injected functions and the named types whose
	// method sets contain one.
	injectedFuncs := make(map[*ast.FuncDecl]bool)
	injectedTypes := make(map[*types.TypeName]bool)
	var decls []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			decls = append(decls, fd)
			if !hasNowParam(pass, fd) {
				continue
			}
			injectedFuncs[fd] = true
			if tn := receiverTypeName(pass, fd); tn != nil {
				injectedTypes[tn] = true
			}
		}
	}
	if len(injectedFuncs) == 0 {
		return nil
	}
	// Second pass: no wall-clock reads inside clock-injected functions or
	// any method of a clock-injected type.
	for _, fd := range decls {
		inScope := injectedFuncs[fd]
		if !inScope {
			if tn := receiverTypeName(pass, fd); tn != nil && injectedTypes[tn] {
				inScope = true
			}
		}
		if !inScope {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if name := fn.Name(); name == "Now" || name == "Since" {
				pass.Reportf(call.Pos(), "time.%s inside clock-injected %s: take the time as a `now time.Time` argument instead", name, describeFunc(fd))
			}
			return true
		})
	}
	return nil
}

// hasNowParam reports whether fd takes a parameter named now of type
// time.Time.
func hasNowParam(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if name.Name != "now" {
				continue
			}
			if tv, ok := pass.TypesInfo.Types[field.Type]; ok && typeIsNamed(tv.Type, "time", "Time") {
				return true
			}
		}
	}
	return false
}

// receiverTypeName resolves fd's receiver to its named type, nil for plain
// functions and unresolvable receivers.
func receiverTypeName(pass *Pass, fd *ast.FuncDecl) *types.TypeName {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]
	if !ok || tv.Type == nil {
		return nil
	}
	t := types.Unalias(tv.Type)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}

// describeFunc names a declaration for a diagnostic: "method (*breaker).allow"
// or "function elapsed".
func describeFunc(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return "function " + fd.Name.Name
	}
	return "method " + fd.Name.Name
}
