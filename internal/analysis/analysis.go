// Package analysis is a small, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough framework to write the
// repository's custom static checks and run them from cmd/pcvet, both
// standalone and as a `go vet -vettool` backend.
//
// The checks exist because the paper's theorems rest on conventions the
// compiler cannot see: all page transfers must flow through the accounting
// disk.Pager, record encodings must stay fixed-width so B = ⌊page/record⌋
// arithmetic holds, shard mutexes must not be held across pager I/O, and
// fault-path errors must stay errors.Is-able. Each convention gets one
// Analyzer; drivers decide which packages each analyzer runs on.
//
// A finding can be suppressed for a sanctioned site with a directive on the
// offending line or the line above:
//
//	//pcvet:allow lockheldio -- single-page miss fill, see DESIGN.md
//
// The reason after “--” is mandatory; a directive without one is itself
// reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports findings for one package via pass.Reportf.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Package bundles everything a driver loads for one package: shared
// position information, syntax, and type information.
type Package struct {
	Fset   *token.FileSet
	Syntax []*ast.File // every parsed file of the package, tests included
	Pkg    *types.Package
	Info   *types.Info
}

// NewInfo allocates a types.Info with every map analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// A Pass carries one analyzer's view of one package. Files holds only the
// non-test files: the conventions are production-code conventions, and tests
// legitimately poke through abstractions (e.g. driving a bare Store).
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records one finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Run executes the analyzers on pkg and returns the surviving diagnostics
// sorted by position: findings on lines covered by a matching
// //pcvet:allow directive are dropped, and malformed directives are reported.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs, bad := directives(pkg.Fset, pkg.Syntax)

	var files []*ast.File
	for _, f := range pkg.Syntax {
		if !strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
			files = append(files, f)
		}
	}

	var out []Diagnostic
	out = append(out, bad...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			report: func(d Diagnostic) {
				if !dirs.allows(pkg.Fset, d) {
					out = append(out, d)
				}
			},
		}
		if err := a.Run(pass); err != nil {
			return out, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Pkg.Path(), err)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// directiveKey identifies one suppression: an analyzer name at a file:line.
type directiveKey struct {
	file string
	line int
	name string
}

type directiveSet map[directiveKey]bool

// DirectivePrefix introduces a suppression comment.
const DirectivePrefix = "//pcvet:allow"

// directives collects every //pcvet:allow comment, returning the suppression
// set and a diagnostic for each directive missing its “-- reason” tail.
func directives(fset *token.FileSet, files []*ast.File) (directiveSet, []Diagnostic) {
	set := directiveSet{}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, DirectivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, DirectivePrefix)
				names, reason, found := strings.Cut(rest, "--")
				if !found || strings.TrimSpace(reason) == "" {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "pcvet",
						Message:  "pcvet:allow directive needs a justification: //pcvet:allow <analyzer> -- <reason>",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				for _, name := range strings.Split(names, ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					set[directiveKey{pos.Filename, pos.Line, name}] = true
				}
			}
		}
	}
	return set, bad
}

// allows reports whether d is covered by a directive on its line or the line
// directly above.
func (s directiveSet) allows(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	return s[directiveKey{pos.Filename, pos.Line, d.Analyzer}] ||
		s[directiveKey{pos.Filename, pos.Line - 1, d.Analyzer}]
}

// ---- shared type-level helpers used by several analyzers ----

// CalleeOf resolves the statically-known function or method a call invokes,
// or nil for builtins, conversions, and calls through function values.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// PkgIs reports whether pkg's import path is path itself or ends in /path —
// so "internal/disk" matches both the in-module spelling and the full
// module-qualified one.
func PkgIs(pkg *types.Package, path string) bool {
	if pkg == nil {
		return false
	}
	return pkg.Path() == path || strings.HasSuffix(pkg.Path(), "/"+path)
}

// RecvNamed returns the named type of a method's receiver (through one
// pointer), or nil if fn is not a method or the receiver is unnamed.
func RecvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// pagerIOMethods are the Pager-shaped methods that transfer or release pages.
// ReadView is the pool's zero-copy read; Flush is the pool's bulk
// write-back; Append/Close are ChainWriter's page-emitting operations.
var pagerIOMethods = map[string]bool{
	"Read": true, "ReadView": true, "Write": true, "Alloc": true, "Free": true,
	"Flush": true, "Append": true, "Close": true,
}

// pagerIOFuncs are the package-level disk helpers that perform page I/O.
var pagerIOFuncs = map[string]bool{
	"ScanChain": true, "FreeChain": true, "WriteChain": true, "ReadView": true,
}

// IsPagerIO reports whether fn is a disk-package function or method that
// performs (or can perform) page I/O through a Pager. PageSize, Stats and
// friends are metadata and excluded.
func IsPagerIO(fn *types.Func) bool {
	if fn == nil || !PkgIs(fn.Pkg(), "internal/disk") {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return pagerIOMethods[fn.Name()]
	}
	return pagerIOFuncs[fn.Name()]
}

// ErrorResultIndex returns the index of fn's trailing error result, or -1.
func ErrorResultIndex(fn *types.Func) int {
	if fn == nil {
		return -1
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return -1
	}
	last := sig.Results().Len() - 1
	if named, ok := sig.Results().At(last).Type().(*types.Named); ok &&
		named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
		return last
	}
	return -1
}
