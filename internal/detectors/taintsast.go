package detectors

import (
	"fmt"
	"sort"

	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/workload"
)

// TaintSASTConfig sets the precision knobs of the static taint analyser.
// Each knob corresponds to a capability real static analysis tools differ
// on; disabling it reproduces the matching class of wrong results.
type TaintSASTConfig struct {
	// Name is the tool's display name.
	Name string
	// SinkAware: the analyser models sanitizer adequacy per sink kind.
	// When false, any sanitizer clears taint for every kind — producing
	// false negatives on wrong-sanitizer flows.
	SinkAware bool
	// DiagonalAdequacy: the analyser uses the naive one-sanitizer-per-kind
	// matrix instead of the true adequacy relation. It then reports quoted
	// SQL/XPath behind quote-encoding sanitizers — false positives on
	// accidentally-safe code. Only meaningful when SinkAware is true.
	DiagonalAdequacy bool
	// ValidatorAware: the analyser recognises the validate-and-reject
	// idiom and clears taint on the validated variable. When false it
	// reports validated flows — false positives.
	ValidatorAware bool
	// PruneDeadBranches: the analyser evaluates constant conditions and
	// skips unreachable code. When false it reports sinks in dead branches
	// — false positives.
	PruneDeadBranches bool
	// TrackLoops: the analyser propagates taint through repeat bodies.
	// When false it skips loop bodies entirely — false negatives on
	// loop-carried flows.
	TrackLoops bool
	// TrackStores: the analyser models the session store, propagating
	// taint from store statements to load expressions across requests.
	// When false every load reads as clean — false negatives on
	// second-order (stored) flows.
	TrackStores bool
}

// taintSAST is a flow-sensitive, path-insensitive abstract interpreter
// over the mini-language: the same architecture as industrial taint
// analysers, at mini scale.
type taintSAST struct {
	cfg TaintSASTConfig
}

var _ Tool = (*taintSAST)(nil)
var _ Pure = (*taintSAST)(nil)

// NewTaintSAST builds a static taint analyser with the given
// configuration.
func NewTaintSAST(cfg TaintSASTConfig) Tool {
	return &taintSAST{cfg: cfg}
}

func (t *taintSAST) Name() string { return t.cfg.Name }

// CellIdentity implements Pure: Analyze reads only cs.Service and
// ignores its RNG.
func (t *taintSAST) CellIdentity() any { return t.cfg }

func (t *taintSAST) Class() Class { return ClassSAST }

// kindMask is a bitset over sink kinds.
type kindMask uint8

func maskOf(k svclang.SinkKind) kindMask { return 1 << uint(k) }

func allKindsMask() kindMask {
	var m kindMask
	for _, k := range svclang.AllSinkKinds() {
		m |= maskOf(k)
	}
	return m
}

// absVal is the abstract value of an expression: the set of sink kinds it
// is dangerous for, plus whether any sanitizer touched it (used for
// confidence scoring).
type absVal struct {
	dangerous kindMask
	sanitized bool
}

func (a absVal) join(b absVal) absVal {
	return absVal{dangerous: a.dangerous | b.dangerous, sanitized: a.sanitized || b.sanitized}
}

// absEnv maps variable names to abstract values.
type absEnv map[string]absVal

func (e absEnv) clone() absEnv {
	out := make(absEnv, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

func (e absEnv) joinWith(other absEnv) {
	for k, v := range other {
		e[k] = e[k].join(v)
	}
}

// absSource abstracts where evalExpr reads variable and session-store
// state from: the AST walker keeps map environments, the CFG engine keeps
// slot vectors. Implementations are pointer receivers carrying a
// "current environment" field, so sharing the evaluator costs no
// allocation per expression.
type absSource interface {
	varAbs(name string) absVal
	storeAbs(key string) absVal
}

// sanitizesUnder applies the configured adequacy model. It is shared by
// the AST walker and the CFG dataflow engine, which must agree on
// expression semantics exactly (the differential tests pin this).
func (cfg TaintSASTConfig) sanitizesUnder(b svclang.Builtin, k svclang.SinkKind) bool {
	if !cfg.SinkAware {
		// Any sanitizer is believed to clear everything.
		return b.IsSanitizer()
	}
	if cfg.DiagonalAdequacy {
		switch b {
		case svclang.BuiltinNumeric:
			return true
		case svclang.BuiltinEscapeSQL:
			return k == svclang.SinkSQL
		case svclang.BuiltinEscapeXPath:
			return k == svclang.SinkXPath
		case svclang.BuiltinEscapeHTML:
			return k == svclang.SinkHTML
		case svclang.BuiltinEscapeShell:
			return k == svclang.SinkCmd
		case svclang.BuiltinSanitizePath:
			return k == svclang.SinkPath
		default:
			return false
		}
	}
	return b.Sanitizes(k)
}

// Analyze implements Tool.
func (t *taintSAST) Analyze(cs workload.Case, _ *stats.RNG) ([]Report, error) {
	svc := cs.Service
	if svc == nil {
		return nil, fmt.Errorf("detectors: %s: nil service", t.cfg.Name)
	}
	env := make(absEnv, len(svc.Params)+4)
	for _, p := range svc.Params {
		env[p] = absVal{dangerous: allKindsMask()}
	}
	st := &taintState{tool: t, svc: svc, found: map[int]Report{}, store: absEnv{}}
	// Stateful services need a second pass so that taint stored by "late"
	// statements reaches loads that appear earlier in the body (a load in
	// request N observes what request N-1 stored). The store state is the
	// only thing carried between passes; the variable environment restarts,
	// exactly as it does per request at runtime.
	passes := 1
	if t.cfg.TrackStores && svc.UsesStore() {
		passes = 2
	}
	for i := 0; i < passes; i++ {
		passEnv := env.clone()
		st.stmts(svc.Body, passEnv)
	}
	reports := make([]Report, 0, len(st.found))
	for _, r := range st.found {
		reports = append(reports, r)
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].SinkID < reports[j].SinkID })
	return reports, nil
}

type taintState struct {
	tool  *taintSAST
	svc   *svclang.Service
	found map[int]Report
	// store is the abstract session store, keyed by store key; it persists
	// across analysis passes (weak updates only).
	store absEnv
	// curEnv is the environment the expression under evaluation reads
	// from; expr sets it before handing the state to evalExpr (the
	// absSource seam).
	curEnv absEnv
}

var _ absSource = (*taintState)(nil)

func (s *taintState) varAbs(name string) absVal  { return s.curEnv[name] }
func (s *taintState) storeAbs(key string) absVal { return s.store[key] }

// stmts analyses a statement list under env, mutating env in place. It
// returns true when the list always rejects (every path ends in Reject).
func (s *taintState) stmts(list []svclang.Stmt, env absEnv) bool {
	for _, st := range list {
		if s.stmt(st, env) {
			return true
		}
	}
	return false
}

func (s *taintState) stmt(st svclang.Stmt, env absEnv) bool {
	switch v := st.(type) {
	case svclang.VarDecl:
		env[v.Name] = absVal{}
	case svclang.Assign:
		env[v.Name] = s.expr(v.Expr, env)
	case svclang.Reject:
		return true
	case svclang.Store:
		if s.tool.cfg.TrackStores {
			val := s.expr(v.Expr, env)
			s.store[v.Key] = s.store[v.Key].join(val)
		}
	case svclang.Sink:
		val := s.expr(v.Expr, env)
		if val.dangerous&maskOf(v.Kind) != 0 {
			conf := 0.9
			if val.sanitized {
				// The value passed a sanitizer yet remains dangerous:
				// report with lower confidence, as real tools do for
				// "possibly insufficient sanitisation" findings.
				conf = 0.6
			}
			if _, dup := s.found[v.ID]; !dup {
				s.found[v.ID] = Report{
					Service:    s.svc.Name,
					SinkID:     v.ID,
					Kind:       v.Kind,
					Confidence: conf,
				}
			}
		}
	case svclang.Repeat:
		if !s.tool.cfg.TrackLoops {
			return false // loop body invisible to the analyser
		}
		// Three passes reach the fixpoint for this finite lattice and the
		// assignment chains the language allows; sinks are recorded on
		// every pass (deduplicated by ID).
		for i := 0; i < 3; i++ {
			if s.stmts(v.Body, env) {
				return false // reject inside a loop: conservatively continue
			}
		}
	case svclang.If:
		// Constant conditions: a pruning analyser follows only the live
		// branch.
		if lit, ok := v.Cond.(svclang.BoolLit); ok && s.tool.cfg.PruneDeadBranches {
			if lit.Value {
				return s.stmts(v.Then, env)
			}
			return s.stmts(v.Else, env)
		}
		thenEnv := env.clone()
		elseEnv := env.clone()
		thenRejects := s.stmts(v.Then, thenEnv)
		elseRejects := s.stmts(v.Else, elseEnv)
		switch {
		case thenRejects && elseRejects:
			return true
		case thenRejects:
			replace(env, elseEnv)
			s.applyValidator(v.Cond, false, env)
		case elseRejects:
			replace(env, thenEnv)
			s.applyValidator(v.Cond, true, env)
		default:
			replace(env, thenEnv)
			env.joinWith(elseEnv)
		}
	}
	return false
}

// replace overwrites dst with src in place.
func replace(dst, src absEnv) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// applyValidator narrows the environment after a validate-and-reject
// pattern: when the surviving path implies matches(x, class), variable x
// is clean. condHolds states whether the condition is true on the
// surviving path.
func (s *taintState) applyValidator(cond svclang.Cond, condHolds bool, env absEnv) {
	if !s.tool.cfg.ValidatorAware {
		return
	}
	// Peel negations, flipping the polarity.
	for {
		if n, ok := cond.(svclang.Not); ok {
			cond = n.Inner
			condHolds = !condHolds
			continue
		}
		break
	}
	m, ok := cond.(svclang.Match)
	if !ok || !condHolds {
		return
	}
	id, ok := m.Expr.(svclang.Ident)
	if !ok {
		return
	}
	env[id.Name] = absVal{}
}

// expr computes the abstract value of an expression.
func (s *taintState) expr(e svclang.Expr, env absEnv) absVal {
	s.curEnv = env
	return evalExpr(s.tool.cfg, e, s)
}

// evalExpr computes the abstract value of an expression under the
// variable environment and abstract session store exposed by src. Both
// static engines — the AST walker above and the CFG dataflow engine in
// dataflowsast.go — share this definition, so any report divergence
// between them can only come from control flow, never from expression
// semantics.
func evalExpr(cfg TaintSASTConfig, e svclang.Expr, src absSource) absVal {
	switch v := e.(type) {
	case svclang.Lit:
		return absVal{}
	case svclang.Ident:
		return src.varAbs(v.Name)
	case svclang.LoadExpr:
		if !cfg.TrackStores {
			return absVal{} // blind to stored data
		}
		return src.storeAbs(v.Key)
	case svclang.Call:
		switch v.Fn {
		case svclang.BuiltinConcat:
			var out absVal
			for _, a := range v.Args {
				out = out.join(evalExpr(cfg, a, src))
			}
			return out
		case svclang.BuiltinUpper, svclang.BuiltinTrim:
			return evalExpr(cfg, v.Args[0], src)
		default:
			in := evalExpr(cfg, v.Args[0], src)
			out := absVal{sanitized: true}
			for _, k := range svclang.AllSinkKinds() {
				if in.dangerous&maskOf(k) != 0 && !cfg.sanitizesUnder(v.Fn, k) {
					out.dangerous |= maskOf(k)
				}
			}
			return out
		}
	default:
		return absVal{dangerous: allKindsMask()} // unknown node: be conservative
	}
}
