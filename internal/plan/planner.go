package plan

import (
	"fmt"
	"strings"

	"qurk/internal/core"
	"qurk/internal/join"
	"qurk/internal/query"
	"qurk/internal/task"
)

// TaskSource resolves UDF names to task templates plus their DSL formal
// parameters; core.Library implements it.
type TaskSource interface {
	// Resolve returns the task registered under name and its formal
	// parameters (empty for tasks bound to concrete columns).
	Resolve(name string) (task.Task, []string, error)
}

// Build compiles a parsed query into a logical plan (paper §2.5):
// machine predicates pushed down, conjuncts serial, disjuncts parallel,
// left-deep joins, POSSIBLY clauses to feature filters, ORDER BY to the
// crowd sort operator, and generative SELECT items to Generate nodes.
func Build(stmt *query.SelectStmt, tasks TaskSource) (Node, error) {
	p := &planner{tasks: tasks, bindings: map[string]bool{}}
	return p.build(stmt)
}

// BuildQuery parses one query string and builds its logical plan.
func BuildQuery(src string, tasks TaskSource) (Node, error) {
	stmt, err := query.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return Build(stmt, tasks)
}

// BuildPinned builds src's plan and pins opts into it (see Pin): the
// one tree a query is both priced on and run as.
func BuildPinned(src string, tasks TaskSource, opts core.Options) (Node, error) {
	root, err := BuildQuery(src, tasks)
	if err != nil {
		return nil, err
	}
	Pin(root, opts)
	return root, nil
}

type planner struct {
	tasks    TaskSource
	bindings map[string]bool // table aliases visible to UDF args
}

func (p *planner) build(stmt *query.SelectStmt) (Node, error) {
	if len(stmt.Select) == 0 {
		return nil, fmt.Errorf("plan: empty select list")
	}
	p.bind(stmt.From)
	var node Node = &Scan{Table: stmt.From.Table, Alias: stmt.From.Alias}

	// WHERE conjuncts sit at the lowest level where every table they
	// name is in scope: over the FROM scan, or directly above the join
	// that brings their last table in.
	var where [][]query.Expr
	if stmt.Where != nil {
		where = make([][]query.Expr, len(stmt.Joins)+1)
		for _, c := range conjuncts(stmt.Where) {
			lvl := whereLevel(c, stmt)
			where[lvl] = append(where[lvl], c)
		}
	}
	node, err := p.where(node, where, 0)
	if err != nil {
		return nil, err
	}

	// Joins, left-deep in query order.
	for k, jc := range stmt.Joins {
		p.bind(jc.Table)
		right := Node(&Scan{Table: jc.Table.Table, Alias: jc.Table.Alias})
		jt, err := p.bindEquiJoin(jc.On)
		if err != nil {
			return nil, err
		}
		cj := &CrowdJoin{Left: node, Right: right, Task: jt}
		for _, pc := range jc.Possibly {
			if err := p.addPossibly(cj, pc, jc.Table.Binding()); err != nil {
				return nil, err
			}
		}
		if node, err = p.where(cj, where, k+1); err != nil {
			return nil, err
		}
	}

	// SELECT: generative UDF items need Generate nodes.
	var columns, aliases []string
	star := false
	for _, item := range stmt.Select {
		if item.Star {
			star = true
			continue
		}
		switch e := item.Expr.(type) {
		case *query.ColumnRef:
			columns = append(columns, e.Name())
			aliases = append(aliases, coalesce(item.Alias, e.Column))
		case *query.UDFCall:
			gt, fields, err := p.bindGenerativeSelect(e)
			if err != nil {
				return nil, err
			}
			node = &Generate{Input: node, Task: gt, Fields: fields}
			col := gt.Name + "." + fields[0]
			columns = append(columns, col)
			aliases = append(aliases, coalesce(item.Alias, fields[0]))
		default:
			return nil, fmt.Errorf("plan: unsupported select expression %s", item.Expr)
		}
	}

	// ORDER BY: plain columns become grouping/machine sort; one Rank
	// UDF (which must come last) becomes the crowd sort.
	if len(stmt.OrderBy) > 0 {
		var groupCols []string
		var groupDesc []bool
		var rankCall *query.UDFCall
		var rankDesc bool
		for i, item := range stmt.OrderBy {
			switch e := item.Expr.(type) {
			case *query.ColumnRef:
				if rankCall != nil {
					return nil, fmt.Errorf("plan: ORDER BY columns must precede the Rank UDF")
				}
				groupCols = append(groupCols, e.Name())
				groupDesc = append(groupDesc, item.Desc)
			case *query.UDFCall:
				if i != len(stmt.OrderBy)-1 {
					return nil, fmt.Errorf("plan: the Rank UDF must be the last ORDER BY item")
				}
				rankCall = e
				rankDesc = item.Desc
			default:
				return nil, fmt.Errorf("plan: unsupported ORDER BY expression %s", item.Expr)
			}
		}
		if rankCall != nil {
			rt, err := p.bindRank(rankCall)
			if err != nil {
				return nil, err
			}
			node = &CrowdOrderBy{Input: node, GroupCols: groupCols, Task: rt, Desc: rankDesc}
		} else {
			node = &MachineOrderBy{Input: node, Cols: groupCols, Desc: groupDesc}
		}
	}

	node = &Project{Input: node, Columns: columns, Aliases: aliases, Star: star}
	if stmt.Limit >= 0 {
		node = &Limit{Input: node, N: stmt.Limit}
	}
	return node, nil
}

// where stacks level lvl's WHERE conjuncts on node: machine predicates
// first (pushdown), then crowd filters serially in query order
// (conjuncts are serial, §2.5). Above a join (lvl > 0) a filter task's
// unqualified prompt fields bind to the table its call names, since a
// bare column may be ambiguous in the joined tuple.
func (p *planner) where(node Node, where [][]query.Expr, lvl int) (Node, error) {
	if lvl >= len(where) {
		return node, nil
	}
	var crowdConj []query.Expr
	for _, c := range where[lvl] {
		if isMachine(c) {
			node = &MachineFilter{Input: node, Expr: c}
		} else {
			crowdConj = append(crowdConj, c)
		}
	}
	for _, c := range crowdConj {
		n, err := p.crowdPredicate(node, c, lvl > 0)
		if err != nil {
			return nil, err
		}
		node = n
	}
	return node, nil
}

// whereLevel places one WHERE conjunct: 0 (over the FROM scan) when it
// names no table, only the FROM table, or a table the query does not
// bind; otherwise k+1, where Joins[k] is the last join that brings a
// table it names into scope.
func whereLevel(e query.Expr, stmt *query.SelectStmt) int {
	lvl := 0
	for _, q := range qualifiers(e, nil) {
		if names(stmt.From, q) {
			continue
		}
		for k, jc := range stmt.Joins {
			if names(jc.Table, q) {
				lvl = max(lvl, k+1)
				break
			}
		}
	}
	return lvl
}

// names reports whether a column qualifier refers to table ref t.
func names(t query.TableRef, qualifier string) bool {
	return strings.EqualFold(qualifier, t.Binding()) || strings.EqualFold(qualifier, t.Table)
}

// qualifiers appends the table qualifiers of every column e references,
// UDF arguments included.
func qualifiers(e query.Expr, out []string) []string {
	switch t := e.(type) {
	case *query.ColumnRef:
		if t.Qualifier != "" {
			out = append(out, t.Qualifier)
		}
	case *query.Binary:
		out = qualifiers(t.R, qualifiers(t.L, out))
	case *query.Not:
		out = qualifiers(t.X, out)
	case *query.UDFCall:
		for _, a := range t.Args {
			out = qualifiers(a, out)
		}
	}
	return out
}

func (p *planner) bind(t query.TableRef) {
	p.bindings[strings.ToLower(t.Binding())] = true
	p.bindings[strings.ToLower(t.Table)] = true
}

func coalesce(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// conjuncts flattens top-level ANDs.
func conjuncts(e query.Expr) []query.Expr {
	if b, ok := e.(*query.Binary); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []query.Expr{e}
}

// isMachine reports whether the expression references no UDFs and can be
// evaluated without the crowd.
func isMachine(e query.Expr) bool {
	switch t := e.(type) {
	case *query.ColumnRef, *query.Literal:
		return true
	case *query.Binary:
		return isMachine(t.L) && isMachine(t.R)
	case *query.Not:
		return isMachine(t.X)
	default:
		return false
	}
}

// crowdPredicate lowers one crowd WHERE conjunct: a UDF call, NOT of
// one, or an OR of them. qualify binds the filter tasks' unqualified
// prompt fields to the table each call names.
func (p *planner) crowdPredicate(input Node, e query.Expr, qualify bool) (Node, error) {
	switch t := e.(type) {
	case *query.UDFCall:
		ft, err := p.bindFilter(t, qualify)
		if err != nil {
			return nil, err
		}
		return &CrowdFilter{Input: input, Task: ft}, nil
	case *query.Not:
		call, ok := t.X.(*query.UDFCall)
		if !ok {
			return nil, fmt.Errorf("plan: NOT is only supported over a filter UDF, got %s", t.X)
		}
		ft, err := p.bindFilter(call, qualify)
		if err != nil {
			return nil, err
		}
		return &CrowdFilter{Input: input, Task: ft, Negate: true}, nil
	case *query.Binary:
		if t.Op != "OR" {
			return nil, fmt.Errorf("plan: unsupported crowd predicate %s", e)
		}
		or := &CrowdFilterOr{Input: input}
		if err := p.collectOr(or, t, qualify); err != nil {
			return nil, err
		}
		return or, nil
	default:
		return nil, fmt.Errorf("plan: unsupported crowd predicate %s", e)
	}
}

func (p *planner) collectOr(or *CrowdFilterOr, e query.Expr, qualify bool) error {
	switch t := e.(type) {
	case *query.Binary:
		if t.Op != "OR" {
			return fmt.Errorf("plan: unsupported expression %s inside OR", e)
		}
		if err := p.collectOr(or, t.L, qualify); err != nil {
			return err
		}
		return p.collectOr(or, t.R, qualify)
	case *query.UDFCall:
		ft, err := p.bindFilter(t, qualify)
		if err != nil {
			return err
		}
		or.Branches = append(or.Branches, ft)
		or.Negates = append(or.Negates, false)
		return nil
	case *query.Not:
		call, ok := t.X.(*query.UDFCall)
		if !ok {
			return fmt.Errorf("plan: NOT inside OR must wrap a UDF, got %s", t.X)
		}
		ft, err := p.bindFilter(call, qualify)
		if err != nil {
			return err
		}
		or.Branches = append(or.Branches, ft)
		or.Negates = append(or.Negates, true)
		return nil
	default:
		return fmt.Errorf("plan: unsupported expression %s inside OR", e)
	}
}

// addPossibly lowers one POSSIBLY clause onto the join node.
func (p *planner) addPossibly(cj *CrowdJoin, pc query.PossiblyClause, rightBinding string) error {
	if rightCall, ok := pc.Right.(*query.UDFCall); ok {
		// Binary feature equality: gender(c.img) = gender(p.img).
		if pc.Op != "=" {
			return fmt.Errorf("plan: POSSIBLY feature comparison must use '=', got %q", pc.Op)
		}
		if !strings.EqualFold(pc.Left.Name, rightCall.Name) {
			return fmt.Errorf("plan: POSSIBLY sides call different tasks: %s vs %s", pc.Left.Name, rightCall.Name)
		}
		lt, field, err := p.bindFeature(pc.Left)
		if err != nil {
			return err
		}
		rt, rfield, err := p.bindFeature(rightCall)
		if err != nil {
			return err
		}
		if field != rfield {
			return fmt.Errorf("plan: POSSIBLY sides extract different fields: %s vs %s", field, rfield)
		}
		cj.LeftFeatures = append(cj.LeftFeatures, join.Feature{Task: lt, Field: field})
		cj.RightFeatures = append(cj.RightFeatures, join.Feature{Task: rt, Field: field})
		return nil
	}
	// Unary predicate: numInScene(scenes.img) = 1. Applies to the side
	// the UDF's argument references.
	lit, ok := pc.Right.(*query.Literal)
	if !ok {
		return fmt.Errorf("plan: POSSIBLY right side must be a UDF or literal, got %s", pc.Right)
	}
	gt, field, err := p.bindFeature(pc.Left)
	if err != nil {
		return err
	}
	up := &UnaryPossibly{Task: gt, Field: field, Op: pc.Op, Value: lit.Text}
	if p.refersTo(pc.Left, rightBinding) {
		up.Input = cj.Right
		cj.Right = up
	} else {
		up.Input = cj.Left
		cj.Left = up
	}
	return nil
}

// refersTo reports whether any UDF argument is qualified by binding.
func (p *planner) refersTo(call *query.UDFCall, binding string) bool {
	for _, a := range call.Args {
		if c, ok := a.(*query.ColumnRef); ok {
			if strings.EqualFold(c.Qualifier, binding) || strings.EqualFold(c.Column, binding) {
				return true
			}
		}
	}
	return false
}

// --- task binding ---

// bindCall resolves and binds a UDF call's formal parameters to the
// actual column names at the call site. Arguments that name a whole
// table binding (isFemale(c)) leave the parameter unbound — the prompt's
// field then resolves against the tuple schema directly.
func (p *planner) bindCall(call *query.UDFCall) (task.Task, error) {
	t, params, err := p.tasks.Resolve(call.Name)
	if err != nil {
		return nil, err
	}
	mapping := map[string]string{}
	for i, param := range params {
		if i >= len(call.Args) {
			break
		}
		c, ok := call.Args[i].(*query.ColumnRef)
		if !ok {
			continue
		}
		if c.Qualifier == "" && p.bindings[strings.ToLower(c.Column)] {
			continue // whole-tuple argument
		}
		mapping[param] = c.Name()
	}
	if len(mapping) == 0 {
		return t, nil
	}
	return task.Bind(t, mapping)
}

func (p *planner) bindFilter(call *query.UDFCall, qualify bool) (*task.Filter, error) {
	t, err := p.bindCall(call)
	if err != nil {
		return nil, err
	}
	ft, ok := t.(*task.Filter)
	if !ok {
		return nil, fmt.Errorf("plan: %s is a %s task, WHERE needs a Filter", call.Name, t.TaskType())
	}
	if qualify {
		return qualifyFields(ft, call)
	}
	return ft, nil
}

// qualifyFields binds a filter task's unqualified prompt fields to the
// one table its call's arguments name (left as is when they name none
// or several).
func qualifyFields(ft *task.Filter, call *query.UDFCall) (*task.Filter, error) {
	q := ""
	for _, a := range call.Args {
		c, ok := a.(*query.ColumnRef)
		if !ok || c.Qualifier == "" {
			continue
		}
		if q != "" && !strings.EqualFold(q, c.Qualifier) {
			return ft, nil
		}
		q = c.Qualifier
	}
	mapping := map[string]string{}
	for _, f := range ft.Prompt.Fields {
		if q != "" && !strings.Contains(f, ".") {
			mapping[f] = q + "." + f
		}
	}
	if len(mapping) == 0 {
		return ft, nil
	}
	t, err := task.Bind(ft, mapping)
	if err != nil {
		return nil, err
	}
	return t.(*task.Filter), nil
}

func (p *planner) bindEquiJoin(call *query.UDFCall) (*task.EquiJoin, error) {
	t, err := p.bindCall(call)
	if err != nil {
		return nil, err
	}
	jt, ok := t.(*task.EquiJoin)
	if !ok {
		return nil, fmt.Errorf("plan: %s is a %s task, ON needs an EquiJoin", call.Name, t.TaskType())
	}
	return jt, nil
}

func (p *planner) bindRank(call *query.UDFCall) (*task.Rank, error) {
	t, err := p.bindCall(call)
	if err != nil {
		return nil, err
	}
	rt, ok := t.(*task.Rank)
	if !ok {
		return nil, fmt.Errorf("plan: %s is a %s task, ORDER BY needs a Rank", call.Name, t.TaskType())
	}
	return rt, nil
}

// bindFeature resolves a POSSIBLY/generative call to a categorical
// generative task and its (single) field.
func (p *planner) bindFeature(call *query.UDFCall) (*task.Generative, string, error) {
	t, err := p.bindCall(call)
	if err != nil {
		return nil, "", err
	}
	gt, ok := t.(*task.Generative)
	if !ok {
		return nil, "", fmt.Errorf("plan: %s is a %s task, POSSIBLY needs a Generative", call.Name, t.TaskType())
	}
	field := call.Field
	if field == "" {
		if len(gt.Fields) != 1 {
			return nil, "", fmt.Errorf("plan: %s has %d fields; specify one with %s(...).field", call.Name, len(gt.Fields), call.Name)
		}
		field = gt.Fields[0].Name
	}
	if _, ok := gt.Field(field); !ok {
		return nil, "", fmt.Errorf("plan: task %s has no field %q", call.Name, field)
	}
	return gt, field, nil
}

// bindGenerativeSelect resolves a SELECT-list generative call.
func (p *planner) bindGenerativeSelect(call *query.UDFCall) (*task.Generative, []string, error) {
	gt, field, err := p.bindFeature(call)
	if err != nil {
		return nil, nil, err
	}
	return gt, []string{field}, nil
}
