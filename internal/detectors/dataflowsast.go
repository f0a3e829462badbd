package detectors

import (
	"fmt"
	"sort"

	"github.com/dsn2015/vdbench/internal/dataflow"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
	"github.com/dsn2015/vdbench/internal/workload"
)

// DataflowSASTConfig configures the CFG-based taint analyser. It carries
// every precision knob of the AST walker (the two engines are report-
// identical at shared settings — TestDataflowMatchesWalker pins this) plus
// one capability only a CFG engine can express.
type DataflowSASTConfig struct {
	TaintSASTConfig

	// PathSensitive: the engine interprets branch conditions along CFG
	// edges — a variable that passed matches()/eq() validation is clean on
	// the holding edge, and edges contradicting a constant condition are
	// infeasible. This refines taint per path, which the AST walker's
	// joined-environment traversal cannot express; it only ever removes
	// reports, never adds them.
	PathSensitive bool
}

// dataflowSAST is a flow-sensitive taint analyser built the way industrial
// SAST engines are: the service is lowered to a basic-block CFG
// (internal/svclang/cfg) and taint facts are propagated to a worklist
// fixpoint (internal/dataflow) with joins at merge points and convergence
// around loops, instead of the walker's fixed three-pass widening.
type dataflowSAST struct {
	cfg DataflowSASTConfig
	// cache, when non-nil, memoises the lowered CFG per (service,
	// options) across every cache-bound tool in a campaign. nil builds
	// directly; reports are identical either way.
	cache *cfg.Cache
}

var _ Tool = (*dataflowSAST)(nil)
var _ CompileCacheable = (*dataflowSAST)(nil)
var _ Pure = (*dataflowSAST)(nil)

// NewDataflowSAST builds a CFG-based static taint analyser with the given
// configuration.
func NewDataflowSAST(config DataflowSASTConfig) Tool {
	return &dataflowSAST{cfg: config}
}

// CompileCacheable is implemented by tools that lower services through
// internal/svclang/cfg and can share one per-campaign compile cache. The
// harness rebinds such tools before a campaign so the parse/lowering work
// for a case happens once, not once per tool.
type CompileCacheable interface {
	// WithCompileCache returns a copy of the tool bound to cc. The
	// receiver is not mutated and the copy's reports are identical; only
	// redundant CFG construction is shared.
	WithCompileCache(cc *cfg.Cache) Tool
}

// WithCompileCache implements CompileCacheable.
func (d *dataflowSAST) WithCompileCache(cc *cfg.Cache) Tool {
	clone := *d
	clone.cache = cc
	return &clone
}

func (d *dataflowSAST) Name() string { return d.cfg.Name }

// CellIdentity implements Pure. Analyze reads only cs.Service and
// ignores its RNG; the compile cache changes speed, never reports.
func (d *dataflowSAST) CellIdentity() any { return d.cfg }

func (d *dataflowSAST) Class() Class { return ClassSAST }

// taintFact is the dataflow fact: live marks reachable-so-far code (the
// lattice bottom is the unreached fact), vars is the abstract variable
// environment as a slot vector — one absVal (a kind bitset plus the
// sanitized flag) per declared name, indexed by the run's slot table.
// Vectors replace the per-fact maps this engine used to carry: joining
// and comparing become elementwise loops over a few machine words and
// cloning a fact is one slice copy instead of a map rebuild.
type taintFact struct {
	live bool
	vars []absVal
}

// taintLattice is the join-semilattice over taintFact. Facts are treated
// as immutable: Join returns fresh state and the transfer function clones
// before mutating.
type taintLattice struct{}

var _ dataflow.Lattice[taintFact] = taintLattice{}

func (taintLattice) Bottom() taintFact { return taintFact{} }

func (taintLattice) Join(a, b taintFact) taintFact {
	switch {
	case !a.live:
		return b
	case !b.live:
		return a
	}
	n := len(a.vars)
	if len(b.vars) > n {
		n = len(b.vars)
	}
	vars := make([]absVal, n)
	copy(vars, a.vars)
	for i, v := range b.vars {
		vars[i] = vars[i].join(v)
	}
	return taintFact{live: true, vars: vars}
}

func (taintLattice) Equal(a, b taintFact) bool {
	if a.live != b.live {
		return false
	}
	if !a.live {
		return true
	}
	// Slots past a vector's end read as the zero value, so a short vector
	// and its zero-padded extension are the same environment.
	long, short := a.vars, b.vars
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, v := range short {
		if long[i] != v {
			return false
		}
	}
	for _, v := range long[len(short):] {
		if v != (absVal{}) {
			return false
		}
	}
	return true
}

// slotTable assigns a dense index to every name the service can bind:
// parameters first, then VarDecls in AST order. Validate guarantees the
// names are unique, so the assignment is total and collision-free.
func slotTable(svc *svclang.Service) map[string]int {
	slots := make(map[string]int, len(svc.Params)+4)
	for _, p := range svc.Params {
		slots[p] = len(slots)
	}
	var walk func(list []svclang.Stmt)
	walk = func(list []svclang.Stmt) {
		for _, st := range list {
			switch v := st.(type) {
			case svclang.VarDecl:
				if _, ok := slots[v.Name]; !ok {
					slots[v.Name] = len(slots)
				}
			case svclang.If:
				walk(v.Then)
				walk(v.Else)
			case svclang.Repeat:
				walk(v.Body)
			}
		}
	}
	walk(svc.Body)
	return slots
}

// storeSlotTable indexes every store key the service writes; a load of a
// never-written key reads the zero value, exactly as the map image did.
func storeSlotTable(svc *svclang.Service) map[string]int {
	slots := map[string]int{}
	var walk func(list []svclang.Stmt)
	walk = func(list []svclang.Stmt) {
		for _, st := range list {
			switch v := st.(type) {
			case svclang.Store:
				if _, ok := slots[v.Key]; !ok {
					slots[v.Key] = len(slots)
				}
			case svclang.If:
				walk(v.Then)
				walk(v.Else)
			case svclang.Repeat:
				walk(v.Body)
			}
		}
	}
	walk(svc.Body)
	return slots
}

// Analyze implements Tool.
func (d *dataflowSAST) Analyze(cs workload.Case, _ *stats.RNG) ([]Report, error) {
	svc := cs.Service
	if svc == nil {
		return nil, fmt.Errorf("detectors: %s: nil service", d.cfg.Name)
	}
	g := d.cache.Build(svc, cfg.Options{
		PruneConstantBranches: d.cfg.PruneDeadBranches,
		SkipLoops:             !d.cfg.TrackLoops,
	})
	run := &dataflowRun{
		tool:       d,
		svc:        svc,
		found:      map[int]Report{},
		slots:      slotTable(svc),
		storeSlots: storeSlotTable(svc),
	}
	run.store = make([]absVal, len(run.storeSlots))
	entry := make([]absVal, len(run.slots))
	for _, p := range svc.Params {
		entry[run.slots[p]] = absVal{dangerous: allKindsMask()}
	}
	// Stateful services get a second pass, like the walker: a load in
	// request N observes what request N-1 stored, so pass 2 reads the
	// store image accumulated by pass 1. Within a pass the store snapshot
	// is fixed (writes land in the next pass's image), which keeps the
	// transfer function monotone during the solve.
	passes := 1
	if d.cfg.TrackStores && svc.UsesStore() {
		passes = 2
	}
	for i := 0; i < passes; i++ {
		run.nextStore = append([]absVal(nil), run.store...)
		dataflow.Solve[taintFact](g, taintLattice{},
			taintFact{live: true, vars: append([]absVal(nil), entry...)},
			func(n int, in taintFact) taintFact {
				return run.transfer(g.Blocks[n], in)
			})
		run.store = run.nextStore
	}
	reports := make([]Report, 0, len(run.found))
	for _, r := range run.found {
		reports = append(reports, r)
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].SinkID < reports[j].SinkID })
	return reports, nil
}

// dataflowRun is the per-analysis state shared across solver passes.
type dataflowRun struct {
	tool  *dataflowSAST
	svc   *svclang.Service
	found map[int]Report
	// slots maps declared names to vars-vector indices; storeSlots maps
	// store keys to store-vector indices. Both are fixed per service.
	slots      map[string]int
	storeSlots map[string]int
	// store is the read snapshot for the current pass; nextStore
	// accumulates writes (weak joins) for the following pass.
	store     []absVal
	nextStore []absVal
	// curVars is the environment the statement being transferred reads
	// from; transfer sets it before interpreting a block (the absSource
	// seam shared with the walker's evalExpr).
	curVars []absVal
}

var _ absSource = (*dataflowRun)(nil)

func (r *dataflowRun) varAbs(name string) absVal {
	if i, ok := r.slots[name]; ok {
		return r.curVars[i]
	}
	return absVal{}
}

func (r *dataflowRun) storeAbs(key string) absVal {
	if i, ok := r.storeSlots[key]; ok {
		return r.store[i]
	}
	return absVal{}
}

// transfer interprets one basic block. Sinks are recorded as a side
// effect with first-report-wins deduplication: the solver's reverse-
// postorder worklist evaluates each block first with its earliest
// (smallest) in-fact, so the recorded confidence matches the walker's
// first-pass recording.
func (r *dataflowRun) transfer(blk *cfg.Block, in taintFact) taintFact {
	if !in.live {
		return taintFact{}
	}
	// Clone and zero-extend to the full slot count in one copy; slots past
	// the in-fact's end are the zero value by the lattice's convention.
	env := make([]absVal, len(r.slots))
	copy(env, in.vars)
	r.curVars = env
	for _, instr := range blk.Instrs {
		if instr.Refine != nil {
			if !r.refine(*instr.Refine, env) {
				return taintFact{} // infeasible edge: the path is dead
			}
			continue
		}
		switch v := instr.Stmt.(type) {
		case svclang.VarDecl:
			env[r.slots[v.Name]] = absVal{}
		case svclang.Assign:
			env[r.slots[v.Name]] = r.eval(v.Expr)
		case svclang.Store:
			if r.tool.cfg.TrackStores {
				val := r.eval(v.Expr)
				i := r.storeSlots[v.Key]
				r.nextStore[i] = r.nextStore[i].join(val)
			}
		case svclang.Sink:
			val := r.eval(v.Expr)
			if val.dangerous&maskOf(v.Kind) != 0 {
				conf := 0.9
				if val.sanitized {
					conf = 0.6
				}
				if _, dup := r.found[v.ID]; !dup {
					r.found[v.ID] = Report{
						Service:    r.svc.Name,
						SinkID:     v.ID,
						Kind:       v.Kind,
						Confidence: conf,
					}
				}
			}
		case svclang.Reject:
			// Terminator: the block has no fallthrough successor (or, for
			// an always-rejecting loop body, flows its state to the loop
			// exit), so nothing to do here.
		}
	}
	return taintFact{live: true, vars: env}
}

func (r *dataflowRun) eval(e svclang.Expr) absVal {
	return evalExpr(r.tool.cfg.TaintSASTConfig, e, r)
}

// setVar clears or sets a named slot in env; names without a slot (never
// declared) are impossible after Validate, so the lookup cannot miss.
func (r *dataflowRun) setVar(env []absVal, name string, v absVal) {
	env[r.slots[name]] = v
}

// refine interprets a synthetic Refine instruction against env, mutating
// it in place. It returns false when the refinement proves the edge
// infeasible.
func (r *dataflowRun) refine(ref cfg.Refine, env []absVal) bool {
	cond, holds := ref.Cond, ref.Holds
	// Peel negations, flipping the polarity — same normalisation as the
	// walker's applyValidator.
	for {
		n, ok := cond.(svclang.Not)
		if !ok {
			break
		}
		cond = n.Inner
		holds = !holds
	}
	switch ref.Gate {
	case cfg.GateValidator:
		// Join-point narrowing after validate-and-reject: identical to the
		// walker's applyValidator, gated on the same knob.
		if !r.tool.cfg.ValidatorAware {
			return true
		}
		m, ok := cond.(svclang.Match)
		if !ok || !holds {
			return true
		}
		if id, ok := m.Expr.(svclang.Ident); ok {
			r.setVar(env, id.Name, absVal{})
		}
	case cfg.GatePath:
		if !r.tool.cfg.PathSensitive {
			return true
		}
		switch c := cond.(type) {
		case svclang.BoolLit:
			// An edge contradicting a constant condition is infeasible.
			return c.Value == holds
		case svclang.Match:
			// On the holding edge the variable passed class validation:
			// its content is inert in every sink context the workload
			// uses. The failing edge tells us nothing (the value is merely
			// not all-in-class).
			if holds {
				if id, ok := c.Expr.(svclang.Ident); ok {
					r.setVar(env, id.Name, absVal{})
				}
			}
		case svclang.Eq:
			// On the holding edge the variable equals a program literal,
			// so the attacker no longer controls it.
			if holds {
				if id, ok := c.Expr.(svclang.Ident); ok {
					r.setVar(env, id.Name, absVal{})
				}
			}
		}
	}
	return true
}
