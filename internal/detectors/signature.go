package detectors

import (
	"fmt"
	"sort"

	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/workload"
)

// signatureSAST models grep-style scanners: flow-insensitive,
// order-insensitive pattern matching. A variable is "dirty" if any
// assignment anywhere in the service stores parameter-derived data into it
// without passing it through some sanitizer (any sanitizer counts — the
// tool has no adequacy model). A sink is reported when its expression
// mentions a dirty name.
//
// The resulting error profile is characteristic of the family: it ignores
// validators and statement order (false positives on validated, dead and
// late-validated code is avoided or incurred purely by accident of
// syntax), and it trusts every sanitizer (false negatives on
// wrong-sanitizer flows).
type signatureSAST struct {
	name string
}

var _ Tool = (*signatureSAST)(nil)
var _ Pure = (*signatureSAST)(nil)

// NewSignatureSAST builds a signature-matching static tool.
func NewSignatureSAST(name string) Tool {
	return &signatureSAST{name: name}
}

func (t *signatureSAST) Name() string { return t.name }

// CellIdentity implements Pure: Analyze reads only cs.Service and
// ignores its RNG. The tool has no knobs, so its identity is the
// name-only struct itself.
func (t *signatureSAST) CellIdentity() any { return *t }

func (t *signatureSAST) Class() Class { return ClassSAST }

// Analyze implements Tool.
func (t *signatureSAST) Analyze(cs workload.Case, _ *stats.RNG) ([]Report, error) {
	svc := cs.Service
	if svc == nil {
		return nil, fmt.Errorf("detectors: %s: nil service", t.name)
	}
	dirty := make(map[string]bool, len(svc.Params))
	for _, p := range svc.Params {
		dirty[p] = true
	}
	// Flow-insensitive fixpoint: iterate assignments until no new variable
	// becomes dirty. Statement order and branching are ignored entirely.
	assigns, sinks := collectFlat(svc.Body)
	for changed := true; changed; {
		changed = false
		for _, a := range assigns {
			if !dirty[a.Name] && exprLooksDirty(a.Expr, dirty) {
				dirty[a.Name] = true
				changed = true
			}
		}
	}
	var reports []Report
	for _, sk := range sinks {
		if exprLooksDirty(sk.Expr, dirty) {
			reports = append(reports, Report{
				Service:    svc.Name,
				SinkID:     sk.ID,
				Kind:       sk.Kind,
				Confidence: 0.5, // pattern match only, no flow evidence
			})
		}
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].SinkID < reports[j].SinkID })
	return reports, nil
}

// storePseudoVar names the dirty-set entry for a session-store key. The
// NUL prefix keeps it disjoint from any declarable identifier.
func storePseudoVar(key string) string { return "\x00store:" + key }

// collectFlat gathers every assignment and sink in the service,
// flattening all control structure. Session-store writes become
// assignments to a pseudo-variable per key, which makes the
// flow-insensitive closure cover second-order flows for free.
func collectFlat(body []svclang.Stmt) (assigns []svclang.Assign, sinks []svclang.Sink) {
	var walk func(list []svclang.Stmt)
	walk = func(list []svclang.Stmt) {
		for _, st := range list {
			switch v := st.(type) {
			case svclang.Assign:
				assigns = append(assigns, v)
			case svclang.Store:
				assigns = append(assigns, svclang.Assign{Name: storePseudoVar(v.Key), Expr: v.Expr})
			case svclang.Sink:
				sinks = append(sinks, v)
			case svclang.If:
				walk(v.Then)
				walk(v.Else)
			case svclang.Repeat:
				walk(v.Body)
			}
		}
	}
	walk(body)
	return assigns, sinks
}

// exprLooksDirty reports whether the expression references a dirty name
// outside of any sanitizer call. Any sanitizer neutralises its whole
// subtree in this tool's model.
func exprLooksDirty(e svclang.Expr, dirty map[string]bool) bool {
	switch v := e.(type) {
	case svclang.Lit:
		return false
	case svclang.Ident:
		return dirty[v.Name]
	case svclang.LoadExpr:
		return dirty[storePseudoVar(v.Key)]
	case svclang.Call:
		if v.Fn.IsSanitizer() {
			return false // trusted blindly
		}
		for _, a := range v.Args {
			if exprLooksDirty(a, dirty) {
				return true
			}
		}
		return false
	default:
		return false
	}
}
