// Package plan turns parsed Qurk queries into logical plan trees
// (paper §2.5): machine-evaluable predicates are pushed below crowd
// operators, WHERE conjuncts run serially while disjuncts run in
// parallel, joins execute left-deep, and POSSIBLY clauses become feature
// filters (binary) or pre-join extraction filters (unary).
package plan

import (
	"fmt"
	"strings"

	"qurk/internal/join"
	"qurk/internal/query"
	"qurk/internal/task"
)

// Node is one logical plan operator.
type Node interface {
	// Label renders the node for EXPLAIN output.
	Label() string
	// Children returns input nodes (left first).
	Children() []Node
}

// Scan reads a base table, optionally under an alias.
type Scan struct {
	// Table is the catalog table name.
	Table string
	// Alias is the optional binding name (FROM celeb AS c).
	Alias string
}

// Label implements Node.
func (s *Scan) Label() string {
	if s.Alias != "" && s.Alias != s.Table {
		return fmt.Sprintf("Scan(%s AS %s)", s.Table, s.Alias)
	}
	return fmt.Sprintf("Scan(%s)", s.Table)
}

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Binding returns the name columns are qualified with.
func (s *Scan) Binding() string {
	if s.Alias != "" {
		return s.Alias
	}
	return s.Table
}

// MachineFilter evaluates a non-HIT predicate (pushed down, §2.5).
type MachineFilter struct {
	// Input is the child operator.
	Input Node
	// Expr is the machine-evaluable predicate.
	Expr query.Expr
}

// Label implements Node.
func (f *MachineFilter) Label() string { return fmt.Sprintf("MachineFilter(%s)", f.Expr) }

// Children implements Node.
func (f *MachineFilter) Children() []Node { return []Node{f.Input} }

// CrowdFilter posts one Filter task per input tuple.
type CrowdFilter struct {
	// Input is the child operator.
	Input Node
	// Task is the Filter task template each tuple instantiates.
	Task *task.Filter
	// Negate keeps the tuples the crowd says NO to.
	Negate bool
	// Phys is the batching choice (set by Pin or Optimize; the executor
	// requires it).
	Phys *BatchPhys
}

// Label implements Node.
func (f *CrowdFilter) Label() string {
	if f.Negate {
		return fmt.Sprintf("CrowdFilter(NOT %s)", f.Task.Name)
	}
	return fmt.Sprintf("CrowdFilter(%s)", f.Task.Name)
}

// Children implements Node.
func (f *CrowdFilter) Children() []Node { return []Node{f.Input} }

// CrowdFilterOr keeps tuples any branch accepts; branches are posted in
// parallel (paper §2.5: "disjuncts (ORs) are issued in parallel").
type CrowdFilterOr struct {
	// Input is the child operator.
	Input Node
	// Branches are the disjunct Filter tasks, posted concurrently.
	Branches []*task.Filter
	// Negates marks per-branch negation, parallel to Branches.
	Negates []bool
	// Phys is the batching choice (set by Pin or Optimize; the executor
	// requires it).
	Phys *BatchPhys
}

// Label implements Node.
func (f *CrowdFilterOr) Label() string {
	names := make([]string, len(f.Branches))
	for i, b := range f.Branches {
		names[i] = b.Name
		if f.Negates[i] {
			names[i] = "NOT " + names[i]
		}
	}
	return fmt.Sprintf("CrowdFilterOr(%s)", strings.Join(names, " OR "))
}

// Children implements Node.
func (f *CrowdFilterOr) Children() []Node { return []Node{f.Input} }

// UnaryPossibly is a pre-join feature extraction plus machine predicate
// over the extracted value — the paper's POSSIBLY numInScene(scenes.img)
// form (§5). UNKNOWN extractions always pass (§2.4).
type UnaryPossibly struct {
	// Input is the child operator.
	Input Node
	// Task is the Generative task that extracts the feature.
	Task *task.Generative
	// Field names the extracted field the predicate tests.
	Field string
	// Op is the comparison operator ("=", "<", …).
	Op string
	// Value is the literal the extraction compares against.
	Value string
	// Phys is the batching choice (set by Pin or Optimize; the executor
	// requires it).
	Phys *BatchPhys
}

// Label implements Node.
func (u *UnaryPossibly) Label() string {
	return fmt.Sprintf("UnaryPossibly(%s.%s %s %s)", u.Task.Name, u.Field, u.Op, u.Value)
}

// Children implements Node.
func (u *UnaryPossibly) Children() []Node { return []Node{u.Input} }

// CrowdJoin joins two inputs with an EquiJoin task, optionally pruned by
// feature filters (POSSIBLY equalities, §3.2). LeftFeatures[i] and
// RightFeatures[i] carry per-side bound prompts for the same feature.
type CrowdJoin struct {
	// Left and Right are the probe and build inputs.
	Left, Right Node
	// Task is the EquiJoin task pairs instantiate.
	Task *task.EquiJoin
	// LeftFeatures holds the probe side's feature filters.
	LeftFeatures []join.Feature
	// RightFeatures holds the build side's feature filters.
	RightFeatures []join.Feature
	// Phys is the interface choice (set by Pin or Optimize; the executor
	// requires it).
	Phys *JoinPhys
}

// Label implements Node.
func (j *CrowdJoin) Label() string {
	if len(j.LeftFeatures) == 0 {
		return fmt.Sprintf("CrowdJoin(%s)", j.Task.Name)
	}
	names := make([]string, len(j.LeftFeatures))
	for i, f := range j.LeftFeatures {
		names[i] = f.Field
	}
	return fmt.Sprintf("CrowdJoin(%s, features: %s)", j.Task.Name, strings.Join(names, ","))
}

// Children implements Node.
func (j *CrowdJoin) Children() []Node { return []Node{j.Left, j.Right} }

// Generate runs a generative task to materialize SELECTed fields
// (SELECT animalInfo(img).common, §2.2).
type Generate struct {
	// Input is the child operator.
	Input Node
	// Task is the Generative task template.
	Task *task.Generative
	// Fields lists the requested output fields.
	Fields []string
	// Phys is the batching choice (set by Pin or Optimize; the executor
	// requires it).
	Phys *BatchPhys
}

// Label implements Node.
func (g *Generate) Label() string {
	return fmt.Sprintf("Generate(%s: %s)", g.Task.Name, strings.Join(g.Fields, ","))
}

// Children implements Node.
func (g *Generate) Children() []Node { return []Node{g.Input} }

// CrowdOrderBy sorts with a Rank task, optionally grouping first by
// machine-sortable columns (ORDER BY name, quality(img) sorts scenes by
// quality within each actor, §5).
type CrowdOrderBy struct {
	// Input is the child operator.
	Input Node
	// GroupCols are machine-sortable grouping columns sorted first.
	GroupCols []string
	// Task is the Rank task the crowd sorts by.
	Task *task.Rank
	// Desc reverses the crowd order.
	Desc bool
	// Phys is the interface choice (set by Pin or Optimize; the executor
	// requires it).
	Phys *SortPhys
}

// Label implements Node.
func (o *CrowdOrderBy) Label() string {
	if len(o.GroupCols) > 0 {
		return fmt.Sprintf("CrowdOrderBy(%s within %s)", o.Task.Name, strings.Join(o.GroupCols, ","))
	}
	return fmt.Sprintf("CrowdOrderBy(%s)", o.Task.Name)
}

// Children implements Node.
func (o *CrowdOrderBy) Children() []Node { return []Node{o.Input} }

// MachineOrderBy sorts by plain columns without the crowd.
type MachineOrderBy struct {
	// Input is the child operator.
	Input Node
	// Cols are the sort columns, major first.
	Cols []string
	// Desc marks per-column descending order, parallel to Cols.
	Desc []bool
}

// Label implements Node.
func (o *MachineOrderBy) Label() string {
	return fmt.Sprintf("MachineOrderBy(%s)", strings.Join(o.Cols, ","))
}

// Children implements Node.
func (o *MachineOrderBy) Children() []Node { return []Node{o.Input} }

// Project selects output columns.
type Project struct {
	// Input is the child operator.
	Input Node
	// Columns are resolved column names; Aliases the output names.
	Columns []string
	// Aliases renames Columns in the output, parallel to Columns.
	Aliases []string
	// Star passes everything through.
	Star bool
}

// Label implements Node.
func (p *Project) Label() string {
	if p.Star {
		return "Project(*)"
	}
	return fmt.Sprintf("Project(%s)", strings.Join(p.Columns, ", "))
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// Limit caps output rows.
type Limit struct {
	// Input is the child operator.
	Input Node
	// N is the row cap.
	N int
}

// Label implements Node.
func (l *Limit) Label() string { return fmt.Sprintf("Limit(%d)", l.N) }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Input} }

// Explain renders the plan tree, crowd operators marked with ☺.
func Explain(n Node) string {
	var b strings.Builder
	explain(&b, n, 0)
	return b.String()
}

// IsCrowd reports whether the node posts HITs when executed; Explain
// marks such nodes ☺, and it lets tools reason about a plan's crowd
// cost without enumerating node types themselves.
func IsCrowd(n Node) bool {
	switch n.(type) {
	case *CrowdFilter, *CrowdFilterOr, *CrowdJoin, *CrowdOrderBy, *Generate, *UnaryPossibly:
		return true
	}
	return false
}

func explain(b *strings.Builder, n Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if IsCrowd(n) {
		b.WriteString("☺ ")
	} else {
		b.WriteString("- ")
	}
	b.WriteString(n.Label())
	b.WriteByte('\n')
	for _, c := range n.Children() {
		explain(b, c, depth+1)
	}
}
