package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// checkLockSafety enforces the repo's mutex discipline per function:
//
//   - A sync.Mutex/RWMutex must not be held across a blocking operation:
//     channel sends and receives, range over a channel, select without a
//     default, sync.WaitGroup.Wait, a call named in cfg.BlockingCalls
//     (engine.Run.Step and friends — real operator compute runs inside
//     them), or a same-package call that reaches one of those
//     (blockSummary). sync.Cond.Wait is exempt: it releases the associated
//     mutex while parked, which is the sanctioned step-loop idiom.
//   - Lock/Unlock must balance on every path: a return (or fall-off) with a
//     lock held and no deferred unlock is reported, as is a merge point
//     where one branch holds a lock the other released, a loop body that
//     changes the lock state between iterations, and a re-Lock of a mutex
//     already held (self-deadlock). `defer mu.Unlock()` and unlocks inside
//     deferred closures are recognized.
//
// Copied lock values are not this rule's business: `go vet`'s copylocks
// reports them, and `make vet` runs in ci.
//
// The analysis is a structured walk over the typed AST — if/switch/select
// split the lock state per path and merge it after, loops are checked for a
// state-preserving body — standing in for an SSA CFG in this
// dependency-free module (see conc.go). It is intra-procedural; calls into
// helpers that unlock a caller-held mutex are deliberately not modelled
// (naked Unlock is a state no-op, never a finding), so the convention-named
// *Locked helpers stay clean.
func checkLockSafety(f *File, cfg Config, blocks map[*types.Func]bool) []Finding {
	if f.Pkg == nil || f.Pkg.Info == nil {
		return nil
	}
	w := &lockWalker{f: f, blocking: blockingSet(cfg), blocks: blocks}
	for _, d := range f.AST.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		st := newLockState()
		if !w.walkStmts(fd.Body.List, st) {
			w.checkExit(fd.Body.End(), st)
		}
	}
	return w.findings
}

type lockMode int

const (
	lockExcl lockMode = iota
	lockRead
)

func (m lockMode) verb() string {
	if m == lockRead {
		return "RLock"
	}
	return "Lock"
}

// lockState is the per-path abstract state: which mutex objects are held
// and which have an unlock deferred to function exit.
type lockState struct {
	held     map[types.Object]lockMode
	deferred map[types.Object]bool
}

func newLockState() *lockState {
	return &lockState{held: map[types.Object]lockMode{}, deferred: map[types.Object]bool{}}
}

func (s *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	return c
}

func sameHeld(a, b *lockState) bool {
	if len(a.held) != len(b.held) {
		return false
	}
	for k, v := range a.held {
		if bv, ok := b.held[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// heldNames renders the held set deterministically for diagnostics.
func (s *lockState) heldNames() []string {
	var names []string
	for obj := range s.held {
		names = append(names, obj.Name())
	}
	sort.Strings(names)
	return names
}

type lockWalker struct {
	f        *File
	blocking map[string]bool
	blocks   map[*types.Func]bool
	findings []Finding
}

func (w *lockWalker) report(pos token.Pos, format string, args ...any) {
	w.findings = append(w.findings, Finding{
		File: w.f.Path, Line: w.f.line(pos), Rule: RuleLockSafety,
		Msg: fmt.Sprintf(format, args...),
	})
}

// blockingOp reports a blocking operation executed with locks held.
func (w *lockWalker) blockingOp(pos token.Pos, what string, st *lockState) {
	if len(st.held) == 0 {
		return
	}
	w.report(pos, "%s is held across %s; unlock first or restructure so the blocking work runs outside the critical section", st.heldNames()[0], what)
}

// checkExit reports locks still held at a return that no defer releases.
func (w *lockWalker) checkExit(pos token.Pos, st *lockState) {
	var names []string
	for obj := range st.held {
		if !st.deferred[obj] {
			names = append(names, obj.Name())
		}
	}
	sort.Strings(names)
	for _, n := range names {
		w.report(pos, "%s is still held at function exit on this path and no deferred unlock covers it", n)
	}
}

// mergeInto merges branch state b into a (the result), reporting locks held
// on one path but not the other.
func (w *lockWalker) mergeInto(pos token.Pos, a, b *lockState) {
	if !sameHeld(a, b) {
		diff := map[string]bool{}
		for obj := range a.held {
			if _, ok := b.held[obj]; !ok {
				diff[obj.Name()] = true
			}
		}
		for obj := range b.held {
			if _, ok := a.held[obj]; !ok {
				diff[obj.Name()] = true
			}
		}
		var names []string
		for n := range diff {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			w.report(pos, "%s is held on some paths but not others reaching this point; lock and unlock must balance on every path", n)
		}
	}
	for obj, mode := range a.held {
		if bm, ok := b.held[obj]; !ok || bm != mode {
			delete(a.held, obj)
		}
	}
	for obj := range b.deferred {
		a.deferred[obj] = true
	}
}

// walkStmts walks a statement list, returning true when every path through
// it terminates (return/panic/branch).
func (w *lockWalker) walkStmts(list []ast.Stmt, st *lockState) bool {
	for _, s := range list {
		if w.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (w *lockWalker) walkStmt(s ast.Stmt, st *lockState) bool {
	switch x := s.(type) {
	case *ast.ExprStmt:
		return w.scanExpr(x.X, st)
	case *ast.SendStmt:
		w.blockingOp(x.Arrow, "a channel send", st)
		w.scanExpr(x.Value, st)
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			if w.scanExpr(e, st) {
				return true
			}
		}
	case *ast.IncDecStmt:
		return w.scanExpr(x.X, st)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						if w.scanExpr(e, st) {
							return true
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			w.scanExpr(e, st)
		}
		w.checkExit(x.Pos(), st)
		return true
	case *ast.IfStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, st)
		}
		w.scanExpr(x.Cond, st)
		thenSt := st.clone()
		thenTerm := w.walkStmts(x.Body.List, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if x.Else != nil {
			elseTerm = w.walkStmt(x.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*st = *elseSt
		case elseTerm:
			*st = *thenSt
		default:
			w.mergeInto(x.Body.End(), thenSt, elseSt)
			*st = *thenSt
		}
	case *ast.BlockStmt:
		return w.walkStmts(x.List, st)
	case *ast.ForStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, st)
		}
		if x.Cond != nil {
			w.scanExpr(x.Cond, st)
		}
		bodySt := st.clone()
		term := w.walkStmts(x.Body.List, bodySt)
		if x.Post != nil {
			w.walkStmt(x.Post, bodySt)
		}
		if !term && !sameHeld(bodySt, st) {
			for _, n := range stateDiffNames(st, bodySt) {
				w.report(x.Pos(), "lock state of %s changes across a loop iteration; each iteration must leave locks as it found them", n)
			}
		}
		for obj := range bodySt.deferred {
			st.deferred[obj] = true
		}
	case *ast.RangeStmt:
		if isChanType(w.f.TypeOf(x.X)) {
			w.blockingOp(x.Pos(), "a range over a channel", st)
		}
		w.scanExpr(x.X, st)
		bodySt := st.clone()
		term := w.walkStmts(x.Body.List, bodySt)
		if !term && !sameHeld(bodySt, st) {
			for _, n := range stateDiffNames(st, bodySt) {
				w.report(x.Pos(), "lock state of %s changes across a loop iteration; each iteration must leave locks as it found them", n)
			}
		}
		for obj := range bodySt.deferred {
			st.deferred[obj] = true
		}
	case *ast.SwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, st)
		}
		if x.Tag != nil {
			w.scanExpr(x.Tag, st)
		}
		return w.walkClauses(x.Body, st, switchHasDefault(x.Body))
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, st)
		}
		return w.walkClauses(x.Body, st, switchHasDefault(x.Body))
	case *ast.SelectStmt:
		if !selectHasDefault(x) {
			w.blockingOp(x.Select, "a select with no default", st)
		}
		return w.walkClauses(x.Body, st, true)
	case *ast.DeferStmt:
		w.handleDefer(x, st)
	case *ast.GoStmt:
		for _, a := range x.Call.Args {
			w.scanExpr(a, st)
		}
	case *ast.LabeledStmt:
		return w.walkStmt(x.Stmt, st)
	case *ast.BranchStmt:
		// break/continue/goto: stop tracking this path. Conservative — the
		// state at the jump target is not modelled.
		return true
	}
	return false
}

// walkClauses walks the case/comm clauses of a switch or select, merging
// the per-clause states. When no clause is a default (exhaustive=false),
// the entry state joins the merge (the switch may fall through).
func (w *lockWalker) walkClauses(body *ast.BlockStmt, st *lockState, exhaustive bool) bool {
	var outs []*lockState
	allTerm := true
	for _, c := range body.List {
		var list []ast.Stmt
		switch cl := c.(type) {
		case *ast.CaseClause:
			list = cl.Body
		case *ast.CommClause:
			list = cl.Body
		}
		cs := st.clone()
		if !w.walkStmts(list, cs) {
			outs = append(outs, cs)
			allTerm = false
		}
	}
	if !exhaustive {
		outs = append(outs, st.clone())
		allTerm = false
	}
	if allTerm && len(body.List) > 0 {
		return true
	}
	if len(outs) == 0 {
		return false
	}
	res := outs[0]
	for _, o := range outs[1:] {
		w.mergeInto(body.End(), res, o)
	}
	*st = *res
	return false
}

func switchHasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cl, ok := c.(*ast.CaseClause); ok && cl.List == nil {
			return true
		}
	}
	return false
}

func stateDiffNames(a, b *lockState) []string {
	diff := map[string]bool{}
	for obj := range a.held {
		if _, ok := b.held[obj]; !ok {
			diff[obj.Name()] = true
		}
	}
	for obj := range b.held {
		if _, ok := a.held[obj]; !ok {
			diff[obj.Name()] = true
		}
	}
	var names []string
	for n := range diff {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// handleDefer records deferred unlocks: `defer mu.Unlock()` directly, or
// unlock calls inside a deferred closure.
func (w *lockWalker) handleDefer(d *ast.DeferStmt, st *lockState) {
	record := func(call *ast.CallExpr) {
		fn, recv := resolveCall(w.f, call)
		if fn == nil || recv == nil {
			return
		}
		if name := mutexMethod(fn); name == "Unlock" || name == "RUnlock" {
			if obj := refObj(w.f, recv); obj != nil {
				st.deferred[obj] = true
			}
		}
	}
	if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				record(call)
			}
			return true
		})
		return
	}
	record(d.Call)
}

// mutexMethod returns the method name when fn is a method of sync.Mutex or
// sync.RWMutex, else "".
func mutexMethod(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isMutex(sig.Recv().Type()) {
		return ""
	}
	return fn.Name()
}

// scanExpr walks an expression in evaluation context: channel receives and
// calls mutate or check the lock state. Function literals are opaque (their
// body runs later, usually on another goroutine). Returns true when the
// expression unconditionally panics.
func (w *lockWalker) scanExpr(e ast.Expr, st *lockState) bool {
	terminated := false
	ast.Inspect(e, func(n ast.Node) bool {
		if terminated {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.blockingOp(x.OpPos, "a channel receive", st)
			}
		case *ast.CallExpr:
			if w.handleCall(x, st) {
				terminated = true
				return false
			}
		}
		return true
	})
	return terminated
}

// handleCall applies one call to the lock state. Returns true for an
// unconditional panic.
func (w *lockWalker) handleCall(call *ast.CallExpr, st *lockState) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := w.f.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "panic" {
			return true
		}
	}
	fn, recv := resolveCall(w.f, call)
	if fn == nil {
		return false
	}
	if m := mutexMethod(fn); m != "" && recv != nil {
		obj := refObj(w.f, recv)
		if obj == nil {
			return false
		}
		switch m {
		case "Lock":
			if mode, ok := st.held[obj]; ok {
				w.report(call.Pos(), "%s.Lock while %s is already %s-held on this path (self-deadlock)", obj.Name(), obj.Name(), mode.verb())
			}
			st.held[obj] = lockExcl
		case "RLock":
			if mode, ok := st.held[obj]; ok && mode == lockExcl {
				w.report(call.Pos(), "%s.RLock while %s is already Lock-held on this path (self-deadlock)", obj.Name(), obj.Name())
			}
			if _, ok := st.held[obj]; !ok {
				st.held[obj] = lockRead
			}
		case "Unlock", "RUnlock":
			// Unlock without a tracked Lock is the *Locked-helper
			// convention (caller holds the lock); never a finding.
			delete(st.held, obj)
		}
		return false
	}
	key := callKey(fn)
	if key == "sync.Cond.Wait" {
		return false // releases the associated mutex while parked
	}
	if kind, k := classifyBlockingCall(w.f, call, w.blocking); kind != "" {
		what := fmt.Sprintf("the blocking call %s", k)
		if kind == "wait" {
			what = "sync.WaitGroup.Wait"
		}
		w.blockingOp(call.Pos(), what, st)
		return false
	}
	if w.blocks[fn] && len(st.held) > 0 {
		w.blockingOp(call.Pos(), fmt.Sprintf("a call to %s, which may block", fn.Name()), st)
	}
	return false
}
