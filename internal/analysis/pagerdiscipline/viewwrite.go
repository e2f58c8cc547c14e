package pagerdiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"pathcache/internal/analysis"
)

// Family 4: no writes through a page view. The bytes disk.ReadView (and a
// PageViewer's or PageReader's read) returns, a skeletal node's Payload and
// a ScanChain record may all be a buffer pool frame shared by every
// concurrent reader of the page; a store into one silently corrupts every
// query that reads it. Aliases are tracked per function, flow-insensitively:
// a local assigned from a view (or a reslice or slice conversion of one)
// is a view.

// sortMutators are the sort and slices functions that reorder their first
// argument in place.
var sortMutators = map[string]bool{
	"Sort": true, "SortFunc": true, "SortStableFunc": true, "Stable": true,
	"Slice": true, "SliceStable": true, "Reverse": true,
	"Ints": true, "Strings": true, "Float64s": true,
}

// checkViewWrites analyzes one function body for writes into views.
func checkViewWrites(pass *analysis.Pass, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	w := &viewWriteChecker{pass: pass, aliases: map[types.Object]bool{}}
	// ScanChain callbacks declared in this body: their record parameter is
	// a view.
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, obj := scanChainCallback(pass, call); obj != nil {
				w.aliases[obj] = true
			}
		}
		return true
	})
	for {
		before := len(w.aliases)
		ast.Inspect(body, w.collect)
		if len(w.aliases) == before {
			break
		}
	}
	ast.Inspect(body, w.check)
}

type viewWriteChecker struct {
	pass    *analysis.Pass
	aliases map[types.Object]bool
}

// viewSource reports whether call returns a page view as its first result:
// disk.ReadView, a ReadView method from the disk package, or
// (*disk.PageReader).Read.
func (w *viewWriteChecker) viewSource(call *ast.CallExpr) bool {
	fn := analysis.CalleeOf(w.pass.TypesInfo, call)
	if fn == nil || !analysis.PkgIs(fn.Pkg(), "internal/disk") {
		return false
	}
	if fn.Name() == "ReadView" {
		return true
	}
	recv := analysis.RecvNamed(fn)
	return fn.Name() == "Read" && recv != nil && recv.Obj().Name() == "PageReader"
}

// isView reports whether e evaluates to bytes aliasing a page view.
func (w *viewWriteChecker) isView(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return w.aliases[w.pass.TypesInfo.Uses[e]]
	case *ast.SliceExpr:
		return w.isView(e.X)
	case *ast.SelectorExpr:
		return w.isPayload(e)
	case *ast.CallExpr:
		if len(e.Args) == 1 && w.pass.TypesInfo.Types[e.Fun].IsType() {
			if _, isSlice := w.pass.TypesInfo.TypeOf(e).Underlying().(*types.Slice); isSlice {
				return w.isView(e.Args[0])
			}
			return false
		}
		return w.viewSource(e)
	}
	return false
}

// isPayload reports whether sel is the Payload field of a skeletal.Node.
func (w *viewWriteChecker) isPayload(sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Payload" {
		return false
	}
	s, ok := w.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Node" && analysis.PkgIs(named.Obj().Pkg(), "internal/skeletal")
}

// collect marks variables assigned from a view.
func (w *viewWriteChecker) collect(n ast.Node) bool {
	var lhs, rhs []ast.Expr
	switch n := n.(type) {
	case *ast.AssignStmt:
		lhs, rhs = n.Lhs, n.Rhs
	case *ast.ValueSpec:
		for _, id := range n.Names {
			lhs = append(lhs, id)
		}
		rhs = n.Values
	default:
		return true
	}
	if len(rhs) == 1 && len(lhs) > 1 {
		// v, err := disk.ReadView(p, id): the view is the first result.
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok && w.viewSource(call) {
			w.mark(lhs[0])
		}
		return true
	}
	for i := range rhs {
		if i < len(lhs) && w.isView(rhs[i]) {
			w.mark(lhs[i])
		}
	}
	return true
}

func (w *viewWriteChecker) mark(e ast.Expr) {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := w.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = w.pass.TypesInfo.Uses[id]
	}
	if obj != nil {
		w.aliases[obj] = true
	}
}

func (w *viewWriteChecker) report(n ast.Node, how string) {
	w.pass.Reportf(n.Pos(),
		"write into a page view (%s): views may be buffer pool frames shared by every concurrent reader, so the store corrupts their queries; copy the bytes into a buffer of your own first", how)
}

// check reports every store into a view.
func (w *viewWriteChecker) check(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, l := range n.Lhs {
			if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok && w.isView(ix.X) {
				w.report(l, "index assignment")
			}
		}
	case *ast.IncDecStmt:
		if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && w.isView(ix.X) {
			w.report(n, "index assignment")
		}
	case *ast.CallExpr:
		if len(n.Args) == 0 || !w.isView(n.Args[0]) {
			return true
		}
		if name, ok := builtinName(w.pass.TypesInfo, n); ok {
			if name == "copy" || name == "clear" {
				w.report(n, name+" into it")
			}
			return true
		}
		fn := analysis.CalleeOf(w.pass.TypesInfo, n)
		switch {
		case fn == nil:
		case analysis.PkgIs(fn.Pkg(), "encoding/binary") && strings.HasPrefix(fn.Name(), "Put"):
			w.report(n, "binary "+fn.Name())
		case (analysis.PkgIs(fn.Pkg(), "sort") || analysis.PkgIs(fn.Pkg(), "slices")) && sortMutators[fn.Name()]:
			w.report(n, "sorted in place by "+fn.Pkg().Name()+"."+fn.Name())
		}
	}
	return true
}
