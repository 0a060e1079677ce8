package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ScratchRetain enforces the pooled-arena reuse contract of the
// zero-allocation engine: a Result returned by Synchronizer.Sync/
// SyncSystem (valid until the second following call, because results are
// double-buffered) or by Stream.Corrections (valid until the next call)
// aliases scratch that later calls overwrite. Retaining such a value — or
// any slice reached through it, or a graph.Dense row — across the
// invalidating call without Clone() is the aliasing bug class the
// reuse-aliasing tests probe dynamically; this analyzer catches it
// statically, per function, in lexical order.
//
// internal/core and internal/graph themselves are exempt: they own the
// arenas and manage aliasing deliberately.
var ScratchRetain = &Analyzer{
	Name: "scratchretain",
	Doc: "flag values derived from pooled core.Result fields or graph.Dense rows that are " +
		"used after a subsequent Synchronizer.Sync/SyncSystem or Stream.Corrections call " +
		"without an intervening Clone()",
	Run: runScratchRetain,
}

// scratchOwnerPkgs manage the arenas themselves and are exempt.
var scratchOwnerPkgs = []string{"internal/core", "internal/graph"}

// srTaint tracks one variable aliasing pooled scratch.
type srTaint struct {
	src       types.Object // owner whose calls invalidate it; nil matches any
	threshold int          // further calls until the alias is clobbered
	count     int
	invalidAt token.Pos // position of the clobbering call, once reached
	reported  bool
}

// srEvent is one lexical event inside a function body. Same-position ties
// order calls before uses before assignments.
type srEvent struct {
	pos  token.Pos
	kind int
	obj  types.Object
	rhs  ast.Expr // evAssign: the assigned expression; nil clears
}

const (
	evCall = iota
	evUse
	evAssign
)

func runScratchRetain(p *Pass) error {
	if pkgMatches(p.Pkg.Path(), scratchOwnerPkgs) {
		return nil
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				srCheckFunc(p, fd.Body)
			}
		}
	}
	return nil
}

// srMethodThreshold classifies a method as result-producing/invalidating:
// Synchronizer results survive one following call (double buffering),
// Stream results none.
func srMethodThreshold(m *types.Func) (int, bool) {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return 0, false
	}
	t := sig.Recv().Type()
	switch {
	case namedIn(t, "internal/core", "Synchronizer") && (m.Name() == "Sync" || m.Name() == "SyncSystem" || m.Name() == "SyncCSR"):
		return 2, true
	case namedIn(t, "internal/core", "Stream") && m.Name() == "Corrections":
		return 1, true
	case namedIn(t, "clocksync", "Stream") && m.Name() == "Corrections":
		return 1, true
	}
	return 0, false
}

// srCallInfo matches a call expression against the invalidating methods,
// returning the receiver object (nil when not a simple variable or field)
// and the validity threshold.
func srCallInfo(info *types.Info, call *ast.CallExpr) (recv types.Object, threshold int, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, 0, false
	}
	m, isFunc := info.Uses[sel.Sel].(*types.Func)
	if !isFunc {
		return nil, 0, false
	}
	threshold, ok = srMethodThreshold(m)
	if !ok {
		return nil, 0, false
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		recv = info.Uses[x]
	case *ast.SelectorExpr:
		recv = info.Uses[x.Sel]
	}
	return recv, threshold, true
}

// isDenseRowCall reports whether call yields a row view into a
// graph.Dense scratch matrix.
func isDenseRowCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	m, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	name := m.Name()
	if name != "Row" && name != "Rows" && name != "RowsInto" {
		return false
	}
	sig, ok := m.Type().(*types.Signature)
	return ok && sig.Recv() != nil && namedIn(sig.Recv().Type(), "internal/graph", "Dense")
}

// hasCloneCall reports whether the expression detaches from the arena via
// a Clone call (Result.Clone, slices.Clone, ...).
func hasCloneCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Clone" {
				found = true
			}
		}
		return !found
	})
	return found
}

// refLike reports whether values of t can alias memory (anything but a
// plain scalar).
func refLike(t types.Type) bool {
	if t == nil {
		return false
	}
	_, basic := t.Underlying().(*types.Basic)
	return !basic
}

// srCheckFunc runs the lexical taint simulation over one function body.
func srCheckFunc(p *Pass, body *ast.BlockStmt) {
	info := p.TypesInfo
	var events []srEvent
	lhsWrites := map[token.Pos]bool{} // plain-`=` LHS idents are writes, not uses

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if recv, _, ok := srCallInfo(info, n); ok {
				events = append(events, srEvent{pos: n.Pos(), kind: evCall, obj: recv})
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
					lhsWrites[id.Pos()] = true
				}
				if obj == nil {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 && i == 0 {
					rhs = n.Rhs[0] // multi-value call: only result 0 is the Result
				}
				events = append(events, srEvent{pos: n.End(), kind: evAssign, obj: obj, rhs: rhs})
			}
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && !lhsWrites[n.Pos()] {
				events = append(events, srEvent{pos: n.Pos(), kind: evUse, obj: obj})
			}
		}
		return true
	})

	sort.SliceStable(events, func(i, j int) bool {
		if events[i].pos != events[j].pos {
			return events[i].pos < events[j].pos
		}
		return events[i].kind < events[j].kind
	})

	taints := map[types.Object]*srTaint{}
	for _, ev := range events {
		switch ev.kind {
		case evAssign:
			if t, tainted := srTaintOf(p, ev.rhs, taints); tainted {
				taints[ev.obj] = &t
			} else {
				delete(taints, ev.obj)
			}
		case evCall:
			for _, t := range taints {
				if t.invalidAt != token.NoPos {
					continue
				}
				if t.src == nil || ev.obj == nil || t.src == ev.obj {
					t.count++
					if t.count >= t.threshold {
						t.invalidAt = ev.pos
					}
				}
			}
		case evUse:
			if t, ok := taints[ev.obj]; ok && t.invalidAt != token.NoPos && !t.reported {
				t.reported = true
				p.Reportf(ev.pos,
					"%s aliases pooled synchronizer scratch that the call at %s reuses; Clone() the result before the invalidating call (see the Synchronizer/Stream reuse contracts)",
					ev.obj.Name(), p.Fset.Position(t.invalidAt))
			}
		}
	}
}

// srTaintOf classifies an assignment RHS against the live taint state:
// does the assigned value alias pooled scratch, and how many further
// invalidating calls does it survive?
func srTaintOf(p *Pass, rhs ast.Expr, taints map[types.Object]*srTaint) (srTaint, bool) {
	if rhs == nil {
		return srTaint{}, false
	}
	info := p.TypesInfo
	if hasCloneCall(rhs) {
		return srTaint{}, false
	}
	// A direct producing call: res, err := s.Sync(...).
	if call, ok := rhs.(*ast.CallExpr); ok {
		if recv, threshold, ok := srCallInfo(info, call); ok {
			return srTaint{src: recv, threshold: threshold}, true
		}
	}
	// Values that cannot alias (ints, floats, bools) never carry taint out.
	if tv, ok := info.Types[rhs]; !ok || !refLike(tv.Type) {
		return srTaint{}, false
	}
	var out srTaint
	found := false
	ast.Inspect(rhs, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isDenseRowCall(info, n) {
				out = srTaint{src: nil, threshold: 1}
				found = true
				return false
			}
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil {
				if t, ok := taints[obj]; ok {
					// Inherit the parent's remaining lifetime: an alias
					// of a result that has already survived a call dies
					// with the parent, not on a fresh budget.
					rest := t.threshold - t.count
					if rest < 1 {
						rest = 1
					}
					out = srTaint{src: t.src, threshold: rest, invalidAt: t.invalidAt}
					found = true
					return false
				}
			}
		}
		return true
	})
	return out, found
}
