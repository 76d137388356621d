package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer of the suite: a module-local
// call graph over every loaded package plus memoized per-function fact
// summaries, mirroring the x/tools facts API on the standard library
// alone. Analyzers stay per-package (diagnostics, allows and fixtures
// keep working unchanged) but consult the Program to reason across
// function and package boundaries: vclock and lockorder become
// transitive, and durable/hotalloc/detmap are built directly on
// reachability and summary facts.
//
// Resolution is static: a call edge exists only where the callee is a
// known *types.Func (direct calls, method values, package-qualified
// calls). Interface dispatch and stored function values resolve to
// nothing — facts over them are a deliberate under-approximation, which
// keeps every reported chain a real, quotable call path.

// A Program is the whole set of packages one simlint run analyzes,
// with its call graph and fact memos.
type Program struct {
	Packages []*Package

	byPath map[string]*Package
	funcs  map[*types.Func]*FuncInfo
	allows []AllowDirective

	lockSum map[*types.Func]map[LockKey]bool
}

// FuncInfo is the call-graph node for one module-local function or
// method declaration.
type FuncInfo struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Callees are the statically resolved calls in source order,
	// including calls made inside function literals defined in the body
	// (a closure runs with its creator's invariants).
	Callees []CallSite

	// acquires lists the lock keys this function may acquire directly
	// (flow-insensitive; the flow-sensitive walker refines it per path).
	acquires []LockKey

	// hotpath records a //simlint:hotpath annotation on the declaration.
	hotpath bool
}

// CallSite is one statically resolved call edge.
type CallSite struct {
	Callee *types.Func
	Pos    token.Pos
}

// AllowDirective is one //simlint:allow directive with its position and
// justification, collected program-wide for the allow audit.
type AllowDirective struct {
	Pos    token.Position
	Names  []string // sorted analyzer names
	Reason string
}

// NewProgram builds the call graph over pkgs. Packages without type
// info (dependency-only loads) contribute no nodes.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		Packages: pkgs,
		byPath:   make(map[string]*Package, len(pkgs)),
		funcs:    make(map[*types.Func]*FuncInfo),
	}
	for _, pkg := range pkgs {
		p.byPath[pkg.PkgPath] = pkg
	}
	// Register every declaration first so edge resolution can normalize
	// through generic origins.
	for _, pkg := range pkgs {
		if pkg.TypesInfo == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				p.funcs[obj.Origin()] = &FuncInfo{
					Func:    obj.Origin(),
					Decl:    fd,
					Pkg:     pkg,
					hotpath: hasHotpathDirective(fd),
				}
			}
		}
	}
	for _, fi := range p.funcs {
		p.buildEdges(fi)
	}
	p.collectAllowDirectives()
	return p
}

// buildEdges fills fi.Callees and fi.acquires from the body.
func (p *Program) buildEdges(fi *FuncInfo) {
	if fi.Decl.Body == nil {
		return
	}
	info := fi.Pkg.TypesInfo
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, op := classifySyncCall(info, call); op == opAcquire {
			fi.acquires = append(fi.acquires, key)
		}
		if callee := resolveCallee(info, call); callee != nil {
			fi.Callees = append(fi.Callees, CallSite{Callee: callee, Pos: call.Pos()})
		}
		return true
	})
}

// resolveCallee returns the static callee of call, normalized through
// generic origins, or nil when the target is dynamic (interface method,
// function value, builtin, conversion).
func resolveCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			// Interface dispatch has no static body to follow.
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			return fn.Origin()
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// FuncOf returns the call-graph node for fn, or nil when fn is not a
// module-local declaration.
func (p *Program) FuncOf(fn *types.Func) *FuncInfo {
	if fn == nil {
		return nil
	}
	return p.funcs[fn.Origin()]
}

// DeclOf returns the node for the given declaration in pkg.
func (p *Program) DeclOf(pkg *Package, fd *ast.FuncDecl) *FuncInfo {
	if pkg.TypesInfo == nil {
		return nil
	}
	obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	return p.FuncOf(obj)
}

// Hotpath reports whether fn carries a //simlint:hotpath annotation.
func (p *Program) Hotpath(fn *types.Func) bool {
	fi := p.FuncOf(fn)
	return fi != nil && fi.hotpath
}

// hasHotpathDirective reports a //simlint:hotpath line in fd's doc.
func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "simlint:hotpath" || strings.HasPrefix(text, "simlint:hotpath ") {
			return true
		}
	}
	return false
}

// A Fact is one memoized transitive property over the call graph:
// "this function, or anything it statically calls, satisfies base".
// Traversal never descends into functions satisfying boundary (audited
// escape hatches like internal/stopwatch) and stops at non-module
// functions (base may still classify them directly).
type Fact struct {
	prog     *Program
	base     func(*types.Func) bool
	boundary func(*types.Func) bool
	holds    map[*types.Func]bool
	next     map[*types.Func]*types.Func
}

// NewFact computes the fact by fixpoint over the call graph. boundary
// may be nil.
func (p *Program) NewFact(base func(*types.Func) bool, boundary func(*types.Func) bool) *Fact {
	if boundary == nil {
		boundary = func(*types.Func) bool { return false }
	}
	f := &Fact{
		prog:     p,
		base:     base,
		boundary: boundary,
		holds:    make(map[*types.Func]bool),
		next:     make(map[*types.Func]*types.Func),
	}
	qualifies := func(c *types.Func) bool {
		if f.boundary(c) {
			return false
		}
		return f.base(c) || f.holds[c]
	}
	for changed := true; changed; {
		changed = false
		for fn, fi := range p.funcs {
			if f.holds[fn] || f.boundary(fn) {
				continue
			}
			for _, cs := range fi.Callees {
				if qualifies(cs.Callee) {
					f.holds[fn] = true
					changed = true
					break
				}
			}
		}
	}
	// Witness edges are recomputed after the fixpoint so they do not
	// depend on map iteration order: prefer the first base callee in
	// source order, else the first holding callee.
	for fn := range f.holds {
		fi := p.funcs[fn]
		var firstHolding *types.Func
		for _, cs := range fi.Callees {
			if f.boundary(cs.Callee) {
				continue
			}
			if f.base(cs.Callee) {
				firstHolding = cs.Callee
				break
			}
			if firstHolding == nil && f.holds[cs.Callee] {
				firstHolding = cs.Callee
			}
		}
		f.next[fn] = firstHolding
	}
	return f
}

// Holds reports whether the fact holds for fn: fn itself satisfies
// base, or some statically reachable callee does.
func (f *Fact) Holds(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	fn = fn.Origin()
	if f.boundary(fn) {
		return false
	}
	return f.base(fn) || f.holds[fn]
}

// Witness returns a deterministic call chain from fn (exclusive) to a
// base function (inclusive), for diagnostics: ["helper", "time.Now"].
func (f *Fact) Witness(fn *types.Func) []string {
	var chain []string
	seen := make(map[*types.Func]bool)
	cur := fn.Origin()
	for i := 0; i < 32; i++ {
		if f.base(cur) {
			return chain // cur was appended when we stepped to it
		}
		nxt := f.next[cur]
		if nxt == nil || seen[nxt] {
			return chain
		}
		seen[nxt] = true
		chain = append(chain, funcDisplayName(nxt))
		cur = nxt
	}
	return chain
}

// funcDisplayName renders fn as pkg.Func or pkg.(Type).Method.
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			name = "(" + named.Obj().Name() + ")." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// LockSummary returns, for every module-local function, the set of
// lock keys it may acquire transitively. Memoized per Program.
func (p *Program) LockSummary() map[*types.Func]map[LockKey]bool {
	if p.lockSum != nil {
		return p.lockSum
	}
	sum := make(map[*types.Func]map[LockKey]bool, len(p.funcs))
	for fn, fi := range p.funcs {
		if len(fi.acquires) == 0 {
			continue
		}
		set := make(map[LockKey]bool, len(fi.acquires))
		for _, k := range fi.acquires {
			set[k] = true
		}
		sum[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for fn, fi := range p.funcs {
			for _, cs := range fi.Callees {
				cset := sum[cs.Callee]
				if len(cset) == 0 {
					continue
				}
				dst := sum[fn]
				for k := range cset {
					if !dst[k] {
						if dst == nil {
							dst = make(map[LockKey]bool)
							sum[fn] = dst
						}
						dst[k] = true
						changed = true
					}
				}
			}
		}
	}
	p.lockSum = sum
	return sum
}

// ModuleLocal reports whether fn is declared in one of the program's
// analyzed packages.
func (p *Program) ModuleLocal(fn *types.Func) bool { return p.FuncOf(fn) != nil }

// Allows returns every //simlint:allow directive in the program,
// sorted by position, for the `simlint -allowlist` audit.
func (p *Program) Allows() []AllowDirective { return p.allows }

// collectAllowDirectives scans every file of every package.
func (p *Program) collectAllowDirectives() {
	for _, pkg := range p.Packages {
		if pkg.TypesInfo == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, reason := parseAllow(c.Text)
					if names == nil {
						continue
					}
					sorted := make([]string, 0, len(names))
					for n := range names {
						sorted = append(sorted, n)
					}
					sort.Strings(sorted)
					p.allows = append(p.allows, AllowDirective{
						Pos:    pkg.Fset.Position(c.Pos()),
						Names:  sorted,
						Reason: reason,
					})
				}
			}
		}
	}
	sort.Slice(p.allows, func(i, j int) bool {
		a, b := p.allows[i].Pos, p.allows[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
}
