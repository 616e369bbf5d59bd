// Package exec runs logical plans over a core.Engine with a streaming
// Volcano-model executor: every plan node compiles to an Operator that
// yields bounded tuple batches through Next(ctx), so crowd operators
// overlap HIT posting and collection across batch boundaries instead
// of materializing a full relation at every node. LIMIT propagates
// cancellation upstream (fewer HITs posted), sorts and stateful
// combiners are explicit pipeline breakers, and HIT spending is
// accounted to the engine's ledger per operator.
//
// Determinism: group IDs derive from plan paths, question IDs from
// input ordinals, and chunk boundaries from counts — never timing —
// so results are bit-identical at any batch size, chunk size, or core
// count (see volcano.go for the full contract).
package exec

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"qurk/internal/combine"
	"qurk/internal/core"
	"qurk/internal/hit"
	"qurk/internal/plan"
	"qurk/internal/poster"
	"qurk/internal/query"
	"qurk/internal/relation"
	"qurk/internal/sortop"
	"qurk/internal/task"
)

// OpStat records one operator's crowd spending.
type OpStat struct {
	// Label names the operator (plan label plus interface choice).
	Label string
	// HITs counts HITs posted by the operator, including refusal and
	// expiry re-posts.
	HITs int
	// Assignments counts completed (submitted) assignments.
	Assignments int
	// Expired counts assignments that were accepted by a worker but
	// never submitted before the assignment deadline. Each expired
	// assignment was re-posted up to Options.ExpiredRetries times; the
	// re-posts are included in HITs.
	Expired int
	// Makespan is the operator's busy span on the virtual crowd clock.
	Makespan float64
}

// Stats aggregates a query run.
type Stats struct {
	mu         sync.Mutex
	Operators  []OpStat
	Incomplete []string
	// Observed lists the statistics operators measured during the run
	// (selectivities, pass fractions, group sizes — the same values fed
	// to the engine's ObStats store); Client.Explain renders them next to
	// the optimizer's estimates. Access via ObservedStats.
	Observed []ObservedStat
	// Reused counts questions resolved from the engine's shared answer
	// store (core.Engine.Answers) instead of being posted — crowd work
	// some earlier query already paid for.
	Reused int
	// PipelineMakespanHours is the end-to-end crowd makespan on the
	// streaming executor's virtual clock: each batch is stamped with
	// the time its rows became available, crowd chunks advance the
	// stamp by their group makespans, and overlapped phases overlap on
	// the clock. Compare with SerialMakespanHours.
	PipelineMakespanHours float64
}

func (s *Stats) add(st OpStat) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Operators = append(s.Operators, st)
}

// addReused bumps the answer-store reuse counter.
func (s *Stats) addReused(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Reused += n
}

// TotalReused reports questions served from the shared answer store.
func (s *Stats) TotalReused() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Reused
}

// registerOp reserves a Stats slot at plan-compile time so operator
// order in Stats is the deterministic plan order, not completion order.
func (s *Stats) registerOp(label string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Operators = append(s.Operators, OpStat{Label: label})
	return len(s.Operators) - 1
}

// setSlot overwrites a registered slot's running totals.
func (s *Stats) setSlot(slot, hits, assignments, expired int, makespan float64, incomplete []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &s.Operators[slot]
	st.HITs = hits
	st.Assignments = assignments
	st.Expired = expired
	st.Makespan = makespan
	s.Incomplete = append(s.Incomplete, incomplete...)
}

// TotalExpired sums assignments that expired (accepted but never
// submitted) across operators — each one cost the query an assignment
// deadline on the clock and, within Options.ExpiredRetries, a re-posted
// HIT in the ledger.
func (s *Stats) TotalExpired() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, o := range s.Operators {
		n += o.Expired
	}
	return n
}

// TotalHITs sums HITs across operators — the paper's cost metric.
func (s *Stats) TotalHITs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, o := range s.Operators {
		n += o.HITs
	}
	return n
}

// SerialMakespanHours sums per-operator makespans: the latency
// estimate if every crowd phase ran back to back with no overlap — the
// materializing executor's behavior. The streaming pipeline's
// PipelineMakespanHours is at most this, and lower whenever phases
// overlapped.
func (s *Stats) SerialMakespanHours() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := 0.0
	for _, o := range s.Operators {
		t += o.Makespan
	}
	return t
}

// executor carries per-run state.
type executor struct {
	eng   *core.Engine
	stats *Stats
}

// groupID derives a HIT-group ID from the operator label and the plan
// path of the operator that posts it. Plan paths are assigned
// deterministically while walking the tree, never from a shared
// counter, so concurrently executing operators mint identical IDs on
// every run — a prerequisite for the simulator's per-HIT seeding to be
// reproducible when phases overlap.
func (x *executor) groupID(label, path string) string {
	return fmt.Sprintf("%s@%s", label, path)
}

// Sink receives one batch of result tuples as the streaming executor
// produces it: the rows, and the virtual crowd clock at which they
// became available. Returning an error aborts the run.
type Sink func(tuples []relation.Tuple, ready float64) error

// Run compiles a plan tree to a streaming operator tree and drains it.
// sink (nil for none) observes every result batch as the root operator
// yields it, so callers (the qurkd row stream, Client.RunStream) can
// forward rows while crowd work is still in flight; the fully
// materialized relation is still returned at the end.
//
// When ctx is done, every operator stops posting HITs and the pipeline
// unwinds: all crowd work, pipeline breakers included, posts through
// the chunked poster, whose collection waits on ctx. Chunks already on
// the marketplace complete (posted crowd work cannot be recalled) but
// are no longer waited for.
//
// Against a simulated marketplace, crowd randomness derives from the
// market seed plus content-stable HIT-group IDs, so re-running the same
// plan on the same market reproduces the same answers (useful for
// debugging). To sample independent crowd draws — e.g. to estimate
// result variance — run each trial against a market with a different
// seed.
//
// One caveat for hand-built plans: the engine's answer store
// (Engine.Answers) is keyed by question content and fed as chunks are
// collected, so if two concurrently executing operators pose the
// *identical* question (same task, same tuples), which one is served
// the other's stored answers depends on scheduling. Planner-built plans
// never duplicate a question across concurrent operators (duplicate OR
// disjuncts are deduplicated here, and a WHERE conjunct stays above the
// join that binds it); for strict determinism in API-built plans that
// do, run them on an engine without a store.
func Run(ctx context.Context, e *core.Engine, node plan.Node, sink Sink) (*relation.Relation, *Stats, error) {
	x := &executor{eng: e, stats: &Stats{}}
	root, err := x.build(node, "q")
	if err != nil {
		return nil, x.stats, err
	}
	defer root.Close()
	out := relation.New(root.Name(), root.Schema())
	for {
		b, err := root.Next(ctx)
		if err != nil {
			return nil, x.stats, err
		}
		if b == nil {
			break
		}
		rows := b.Rows()
		for _, t := range rows {
			if err := out.Append(t); err != nil {
				return nil, x.stats, err
			}
		}
		if sink != nil && len(rows) > 0 {
			if err := sink(rows, b.Ready); err != nil {
				return nil, x.stats, err
			}
		}
		// Root is the end of the pipeline: recycle the batch's vectors.
		// The arena-backed rows appended above stay valid.
		b.Cols.Release()
		if b.Ready > x.stats.PipelineMakespanHours {
			x.stats.PipelineMakespanHours = b.Ready
		}
	}
	// Rejected tail tuples never reach the root as batches, but the
	// crowd time spent deciding them still bounds the query.
	if cr := readyOf(root); cr > x.stats.PipelineMakespanHours {
		x.stats.PipelineMakespanHours = cr
	}
	return out, x.stats, nil
}

// Compile builds the streaming operator tree for a plan without
// executing it; Describe renders it. Close the returned operator if it
// is not drained.
func Compile(e *core.Engine, node plan.Node) (Operator, error) {
	x := &executor{eng: e, stats: &Stats{}}
	return x.build(node, "q")
}

// build compiles one plan node (and its subtree) at the given plan
// path into an Operator.
func (x *executor) build(node plan.Node, path string) (Operator, error) {
	opts := &x.eng.Options
	switch n := node.(type) {
	case *plan.Scan:
		rel, err := x.eng.Catalog.Table(n.Table)
		if err != nil {
			return nil, err
		}
		return newScanOp(rel.Qualify(n.Binding()), opts.ExecBatch), nil

	case *plan.MachineFilter:
		child, err := x.build(n.Input, path+".i")
		if err != nil {
			return nil, err
		}
		return &machineFilterOp{
			child: child,
			label: n.Label(),
			pred: func(t relation.Tuple) (bool, error) {
				v, err := evalExpr(t, n.Expr)
				if err != nil {
					return false, err
				}
				return v.Bool(), nil
			},
		}, nil

	case *plan.CrowdFilter:
		child, err := x.build(n.Input, path+".i")
		if err != nil {
			return nil, err
		}
		batch, asn := batchPhys(n.Phys, opts.FilterBatch, opts.Assignments)
		return x.buildFilter(child, n.Label(), path,
			[]*filterSpec{{ft: n.Task, negate: n.Negate, groupID: x.groupID("filter/"+n.Task.Name, path), label: n.Label()}},
			batch, asn)

	case *plan.CrowdFilterOr:
		child, err := x.build(n.Input, path+".i")
		if err != nil {
			return nil, err
		}
		specs := make([]*filterSpec, len(n.Branches))
		firstOf := map[string]int{}
		for i := range n.Branches {
			specs[i] = &filterSpec{
				ft:      n.Branches[i],
				negate:  n.Negates[i],
				groupID: x.groupID("filter-or/"+n.Branches[i].Name, fmt.Sprintf("%s.b%d", path, i)),
				label:   fmt.Sprintf("%s[%d]", n.Label(), i),
				dupOf:   i,
			}
			sig := fmt.Sprintf("%s|%v", n.Branches[i].Name, n.Negates[i])
			if first, dup := firstOf[sig]; dup {
				specs[i].dupOf = first
			} else {
				firstOf[sig] = i
			}
		}
		batch, asn := batchPhys(n.Phys, opts.FilterBatch, opts.Assignments)
		return x.buildFilter(child, n.Label(), path, specs, batch, asn)

	case *plan.UnaryPossibly:
		child, err := x.build(n.Input, path+".i")
		if err != nil {
			return nil, err
		}
		batch, asn := batchPhys(n.Phys, opts.ExtractBatch, opts.Assignments)
		g, err := x.buildGenerative(child, n.Label(), x.groupID("possibly/"+n.Task.Name, path),
			n.Task, []string{n.Field}, batch, asn)
		if err != nil {
			return nil, err
		}
		g.possiblyField, g.possiblyOp, g.possiblyValue = n.Field, n.Op, n.Value
		return g, nil

	case *plan.Generate:
		child, err := x.build(n.Input, path+".i")
		if err != nil {
			return nil, err
		}
		batch, asn := batchPhys(n.Phys, opts.GenerativeBatch, opts.Assignments)
		g, err := x.buildGenerative(child, n.Label(), x.groupID("generate/"+n.Task.Name, path),
			n.Task, n.Fields, batch, asn)
		if err != nil {
			return nil, err
		}
		// Output schema: input columns + one text column per field.
		cols := child.Schema().Columns()
		for _, fname := range g.fields {
			cols = append(cols, relation.Column{Name: n.Task.Name + "." + fname, Kind: relation.KindText})
		}
		schema, err := relation.NewSchema(cols...)
		if err != nil {
			return nil, err
		}
		g.schemaOut = schema
		return g, nil

	case *plan.CrowdJoin:
		left, err := x.build(n.Left, path+".l")
		if err != nil {
			return nil, err
		}
		right, err := x.build(n.Right, path+".r")
		if err != nil {
			return nil, err
		}
		if err := n.Task.Validate(); err != nil {
			return nil, err
		}
		schema, err := left.Schema().Concat(right.Schema())
		if err != nil {
			return nil, fmt.Errorf("join: %w", err)
		}
		comb, err := x.eng.Combiner()
		if err != nil {
			return nil, err
		}
		groupID := x.groupID("join/"+n.Task.Name, path)
		jp := joinPhysOf(n, opts)
		j := &crowdJoinOp{
			x:    x,
			node: n,
			phys: jp,
			path: path,
			// Exchange-wrap the probe subtree so it makes crowd progress
			// while the build side materializes (paper §2.5's pipelined,
			// left-deep execution); start() primes it. The build side is
			// drained directly (with its own goroutine in the
			// both-materialized path), so wrapping it would only add a
			// buffer layer.
			left:    newConcurrentOp(left, 4),
			right:   right,
			schema:  schema,
			label:   n.Label(),
			comb:    comb,
			perQ:    combine.IsPerQuestion(comb),
			builder: hit.NewBuilder(groupID, jp.Assignments, 1),
			slotOf:  map[string]int{},
		}
		j.acct = &opAcct{x: x, label: n.Label(), asn: jp.Assignments, slot: x.stats.registerOp(n.Label())}
		j.post = x.newPoster(groupID, &j.seq, j.acct)
		j.emit.size = opts.ExecBatch
		if err := j.initExtraction(); err != nil {
			return nil, err
		}
		return j, nil

	case *plan.CrowdOrderBy:
		child, err := x.build(n.Input, path+".i")
		if err != nil {
			return nil, err
		}
		return &crowdOrderByOp{x: x, node: n, phys: sortPhysOf(n, opts), path: path, child: child, size: opts.ExecBatch}, nil

	case *plan.MachineOrderBy:
		child, err := x.build(n.Input, path+".i")
		if err != nil {
			return nil, err
		}
		return &machineOrderByOp{node: n, child: child, size: opts.ExecBatch, cap: opts.BreakerMemTuples}, nil

	case *plan.Project:
		child, err := x.build(n.Input, path+".i")
		if err != nil {
			return nil, err
		}
		if n.Star || len(n.Columns) == 0 {
			return child, nil
		}
		schema, ords, err := child.Schema().Project(n.Columns...)
		if err != nil {
			return nil, err
		}
		// Rename to output aliases.
		cols := schema.Columns()
		for i := range cols {
			if i < len(n.Aliases) && n.Aliases[i] != "" {
				cols[i].Name = n.Aliases[i]
			}
		}
		schema, err = relation.NewSchema(cols...)
		if err != nil {
			return nil, err
		}
		return &projectOp{child: child, schema: schema, ords: ords, name: child.Name()}, nil

	case *plan.Limit:
		child, err := x.build(n.Input, path+".i")
		if err != nil {
			return nil, err
		}
		return &limitOp{child: child, n: n.N}, nil

	default:
		return nil, fmt.Errorf("exec: unknown plan node %T", node)
	}
}

// filterSpec is build-time input for one filter branch.
type filterSpec struct {
	ft      *task.Filter
	negate  bool
	groupID string
	label   string
	dupOf   int
}

// batchPhys resolves an operator's batching annotation against the
// engine defaults (nil or zero fields fall back).
func batchPhys(p *plan.BatchPhys, batch, assignments int) (int, int) {
	if p != nil {
		if p.Batch > 0 {
			batch = p.Batch
		}
		if p.Assignments > 0 {
			assignments = p.Assignments
		}
	}
	return batch, assignments
}

// joinPhysOf resolves a join's physical choice: the optimizer's
// annotation when present, else the engine-wide Options (which apply
// POSSIBLY features whenever the node has them — the pre-optimizer
// behavior).
func joinPhysOf(n *plan.CrowdJoin, opts *core.Options) plan.JoinPhys {
	p := plan.JoinPhys{
		Algorithm:   opts.JoinAlgorithm,
		BatchSize:   opts.JoinBatch,
		GridRows:    opts.GridRows,
		GridCols:    opts.GridCols,
		UseFeatures: true,
		Assignments: opts.Assignments,
	}
	if n.Phys != nil {
		p.Algorithm = n.Phys.Algorithm
		p.UseFeatures = n.Phys.UseFeatures
		if n.Phys.BatchSize > 0 {
			p.BatchSize = n.Phys.BatchSize
		}
		if n.Phys.GridRows > 0 {
			p.GridRows = n.Phys.GridRows
		}
		if n.Phys.GridCols > 0 {
			p.GridCols = n.Phys.GridCols
		}
		if n.Phys.Assignments > 0 {
			p.Assignments = n.Phys.Assignments
		}
	}
	return p
}

// sortPhysOf resolves a sort's physical choice the same way.
func sortPhysOf(n *plan.CrowdOrderBy, opts *core.Options) plan.SortPhys {
	p := plan.SortPhys{
		Method:      opts.SortMethod,
		GroupSize:   opts.CompareGroupSize,
		RateBatch:   opts.RateBatch,
		Iterations:  opts.HybridIterations,
		Step:        opts.HybridStep,
		Strategy:    sortop.SlidingWindow,
		Assignments: opts.Assignments,
	}
	if n.Phys != nil {
		p.Method = n.Phys.Method
		p.Strategy = n.Phys.Strategy
		if n.Phys.GroupSize > 0 {
			p.GroupSize = n.Phys.GroupSize
		}
		if n.Phys.RateBatch > 0 {
			p.RateBatch = n.Phys.RateBatch
		}
		if n.Phys.Iterations > 0 {
			p.Iterations = n.Phys.Iterations
		}
		if n.Phys.Step > 0 {
			p.Step = n.Phys.Step
		}
		if n.Phys.Assignments > 0 {
			p.Assignments = n.Phys.Assignments
		}
	}
	return p
}

// newPoster builds a chunk poster over the engine's marketplace,
// wiring the operator's accounting, the engine-wide retry budgets, and
// the engine's answer store, whose served questions count as reuse and
// are journaled as replays.
func (x *executor) newPoster(groupID string, seq *int, acct *opAcct) *poster.Poster {
	return poster.New(poster.Config{
		Market:         x.eng.Market,
		GroupID:        groupID,
		ChunkHITs:      x.eng.Options.StreamChunkHITs,
		Lookahead:      x.eng.Options.StreamLookahead,
		Seq:            seq,
		Acct:           acct,
		RefusedRetries: x.eng.Options.RefusedRetries,
		ExpiredRetries: x.eng.Options.ExpiredRetries,
		Answers:        x.eng.Answers,
		Served:         x.served,
	})
}

// buildFilter assembles the streaming filter over one or more branch
// specs (a plain CrowdFilter is the one-branch case).
func (x *executor) buildFilter(child Operator, label, path string, specs []*filterSpec, hitSize, assignments int) (Operator, error) {
	f := &crowdFilterOp{
		x:       x,
		child:   child,
		label:   label,
		hitSize: hitSize,
		slotOf:  map[string]int{},
	}
	f.emit.size = x.eng.Options.ExecBatch
	for i, sp := range specs {
		if err := sp.ft.Validate(); err != nil {
			return nil, err
		}
		br := &filterBranch{
			idx:     i,
			ft:      sp.ft,
			negate:  sp.negate,
			groupID: sp.groupID,
			dupOf:   sp.dupOf,
		}
		if sp.dupOf != i {
			// Duplicate disjuncts run once and share the result:
			// concurrent identical branches would otherwise race on the
			// answer store, making reruns timing-dependent.
			x.stats.add(OpStat{Label: fmt.Sprintf("%s = [%d] (duplicate disjunct)", sp.label, sp.dupOf)})
			f.branch = append(f.branch, br)
			continue
		}
		comb, err := x.eng.Combiner()
		if err != nil {
			return nil, err
		}
		br.comb = comb
		br.perQ = combine.IsPerQuestion(comb)
		br.builder = hit.NewBuilder(sp.groupID, assignments, 1)
		br.acct = &opAcct{x: x, label: sp.label, asn: assignments, slot: x.stats.registerOp(sp.label)}
		br.post = x.newPoster(sp.groupID, &f.seq, br.acct)
		f.branch = append(f.branch, br)
		f.uniq = append(f.uniq, br)
	}
	return f, nil
}

// buildGenerative assembles the shared generative streaming core.
func (x *executor) buildGenerative(child Operator, label, groupID string, gt *task.Generative, fields []string, hitSize, assignments int) (*generativeOp, error) {
	if err := gt.Validate(); err != nil {
		return nil, err
	}
	if len(fields) == 0 {
		for _, f := range gt.Fields {
			fields = append(fields, f.Name)
		}
	}
	g := &generativeOp{
		x:       x,
		child:   child,
		label:   label,
		groupID: groupID,
		gt:      gt,
		fields:  fields,
		norm:    map[string]task.Normalizer{},
		comb:    map[string]combine.Combiner{},
		perQ:    true,
		hitSize: hitSize,
		builder: hit.NewBuilder(groupID, assignments, 1),
		slotOf:  map[string]int{},
	}
	g.emit.size = x.eng.Options.ExecBatch
	g.eosVotes = map[string][]combine.Vote{}
	for _, fname := range fields {
		spec, ok := gt.Field(fname)
		if !ok {
			return nil, fmt.Errorf("exec: task %s has no field %q", gt.Name, fname)
		}
		norm, err := task.LookupNormalizer(spec.Normalizer)
		if err != nil {
			return nil, err
		}
		g.norm[fname] = norm
		comb, err := combine.Lookup(spec.Combiner)
		if err != nil {
			return nil, err
		}
		g.comb[fname] = comb
		if !combine.IsPerQuestion(comb) {
			g.perQ = false
		}
	}
	g.acct = &opAcct{x: x, label: label, asn: assignments, slot: x.stats.registerOp(label)}
	g.post = x.newPoster(groupID, &g.seq, g.acct)
	return g, nil
}

// runQuestions posts one phase's questions through the chunked poster
// — fixed-size HITs of perHIT questions, chunked sub-groups, bounded
// lookahead, and the refusal/expiry retry policies — serving what the
// shared answer store already holds and feeding it what the crowd
// answers. add receives every resolved question's answers. It
// registers a Stats slot under label, returns the phase's completion
// time on the virtual clock (clock when nothing posted), and reports
// exhausted questions via Stats.Incomplete.
func (x *executor) runQuestions(ctx context.Context, label, groupID string,
	questions []hit.Question, perHIT, assignments int, clock float64,
	add func(q *hit.Question, as []hit.CachedAnswer)) (float64, *opAcct, error) {
	acct := &opAcct{x: x, label: label, asn: assignments, slot: x.stats.registerOp(label)}
	p := x.newPoster(groupID, new(int), acct)
	b := hit.NewBuilder(groupID, assignments, 1)
	resolve := func(q *hit.Question, as []hit.CachedAnswer, _ float64) error {
		add(q, as)
		return nil
	}
	qbuf := make([]hit.Question, 0, len(questions))
	for i := range questions {
		served, err := p.Serve(&questions[i], clock, resolve)
		if err != nil {
			return clock, acct, err
		}
		if !served {
			qbuf = append(qbuf, questions[i])
		}
	}
	if err := p.FlushQuestions(b, &qbuf, perHIT, true); err != nil {
		return clock, acct, err
	}
	done, err := p.Drain(ctx, clock, resolve)
	return done, acct, err
}

// perAnswer adapts a sort tally's per-answer Add to runQuestions.
func perAnswer(add func(qid string, ans hit.Answer)) func(*hit.Question, []hit.CachedAnswer) {
	return func(q *hit.Question, as []hit.CachedAnswer) {
		for _, ca := range as {
			add(q.ID, ca.Answer)
		}
	}
}

// crowdSort orders one group's rows with the node's chosen sort
// interface (engine defaults when un-annotated), accounting its
// spending, and returns the order plus the time the sort settled on
// the virtual clock. Comparison and rating rounds, the hybrid
// algorithm's rating seed, and its comparison refinements all post
// through the chunked poster.
func (x *executor) crowdSort(ctx context.Context, sub *relation.Relation, n *plan.CrowdOrderBy, sp plan.SortPhys, path string, clock float64) ([]int, float64, error) {
	if sub.Len() == 1 {
		return []int{0}, clock, nil
	}
	opts := x.eng.Options
	switch sp.Method {
	case core.SortCompare:
		gid := x.groupID("sort-compare/"+n.Task.Name, path)
		questions, tally, err := sortop.BuildCompare(sub, n.Task, sortop.CompareOptions{
			GroupSize:   sp.GroupSize,
			Assignments: sp.Assignments,
			GroupID:     gid,
			Seed:        opts.Seed,
		})
		if err != nil {
			return nil, 0, err
		}
		done, _, err := x.runQuestions(ctx, n.Label(), gid, questions, 1, sp.Assignments, clock, perAnswer(tally.Add))
		if err != nil {
			return nil, 0, err
		}
		return tally.Result().Order, done, nil
	case core.SortRate:
		gid := x.groupID("sort-rate/"+n.Task.Name, path)
		batch := sp.RateBatch
		if batch <= 0 {
			batch = sortop.DefaultRateBatch
		}
		questions, tally, err := sortop.BuildRate(sub, n.Task, sortop.RateOptions{
			BatchSize:   batch,
			Assignments: sp.Assignments,
			GroupID:     gid,
			Seed:        opts.Seed,
		})
		if err != nil {
			return nil, 0, err
		}
		done, _, err := x.runQuestions(ctx, n.Label(), gid, questions, batch, sp.Assignments, clock, perAnswer(tally.Add))
		if err != nil {
			return nil, 0, err
		}
		return tally.Result().Order, done, nil
	case core.SortHybrid:
		gid := x.groupID("sort-hybrid/"+n.Task.Name, path)
		batch := sp.RateBatch
		if batch <= 0 {
			batch = sortop.DefaultRateBatch
		}
		// Rating seed through the poster (chunked, retried) …
		questions, tally, err := sortop.BuildRate(sub, n.Task, sortop.RateOptions{
			BatchSize:   batch,
			Assignments: sp.Assignments,
			GroupID:     gid + "/rate",
			Seed:        opts.Seed,
		})
		if err != nil {
			return nil, 0, err
		}
		done, acct, err := x.runQuestions(ctx, n.Label()+" [rate seed]", gid+"/rate", questions, batch, sp.Assignments, clock, perAnswer(tally.Add))
		if err != nil {
			return nil, 0, err
		}
		rr := tally.Result()
		rr.HITCount = acct.hits
		// … then the comparison refinements, through the chunked poster:
		// iterations on disjoint windows mint and post concurrently
		// (bounded by the lookahead), answers fold in iteration order, and
		// the refusal/expiry retry policies apply — previously each
		// iteration was one blocking single-question marketplace round.
		st, err := sortop.NewHybridState(sub, n.Task, sortop.HybridOptions{
			Strategy:    sp.Strategy,
			WindowSize:  sp.GroupSize,
			Step:        sp.Step,
			Iterations:  sp.Iterations,
			Assignments: sp.Assignments,
			SeedRating:  rr,
			GroupID:     gid,
			Seed:        opts.Seed,
		})
		if err != nil {
			return nil, 0, err
		}
		hacct := &opAcct{x: x, label: n.Label(), asn: sp.Assignments, slot: x.stats.registerOp(n.Label())}
		p := x.newPoster(gid, new(int), hacct)
		iterOf := map[string]int{}
		apply := func(q *hit.Question, as []hit.CachedAnswer, _ float64) error {
			answers := make([]hit.Answer, 0, len(as))
			for _, ca := range as {
				answers = append(answers, ca.Answer)
			}
			return st.Apply(iterOf[q.ID], answers)
		}
		for !st.Done() {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			// Mint every iteration whose window is free of in-flight ones,
			// serving repeats from the shared answer store first.
			for {
				h, iter, err := st.MintNext()
				if err != nil {
					return nil, 0, err
				}
				if h == nil {
					break
				}
				q := &h.Questions[0]
				iterOf[q.ID] = iter
				served, err := p.Serve(q, done, apply)
				if err != nil {
					return nil, 0, err
				}
				if !served {
					p.Enqueue(h)
				}
			}
			p.PostReady(true, done)
			if p.OldestSeq() < 0 {
				continue
			}
			chunkDone, err := p.CollectOne(ctx, apply)
			if err != nil {
				return nil, 0, err
			}
			if chunkDone > done {
				done = chunkDone
			}
		}
		res := st.Result()
		return res.Order, done, nil
	default:
		return nil, 0, fmt.Errorf("exec: unknown sort method %v", sp.Method)
	}
}

// comparePossibly evaluates extractedValue op literal with the paper's
// UNKNOWN wildcard semantics (§2.4): UNKNOWN never prunes. Values parse
// numerically when possible ("3+" → 3); otherwise "="/"<>" compare text.
func comparePossibly(v, op, lit string) (bool, error) {
	if strings.EqualFold(v, "UNKNOWN") || v == "" {
		return true, nil
	}
	ln, lerr := parseLooseInt(lit)
	vn, verr := parseLooseInt(v)
	if lerr == nil && verr == nil {
		switch op {
		case "=":
			return vn == ln, nil
		case "<>", "!=":
			return vn != ln, nil
		case "<":
			return vn < ln, nil
		case "<=":
			return vn <= ln, nil
		case ">":
			return vn > ln, nil
		case ">=":
			return vn >= ln, nil
		}
	}
	switch op {
	case "=":
		return strings.EqualFold(v, lit), nil
	case "<>", "!=":
		return !strings.EqualFold(v, lit), nil
	default:
		return false, fmt.Errorf("exec: cannot compare %q %s %q", v, op, lit)
	}
}

func parseLooseInt(s string) (int, error) {
	s = strings.TrimSuffix(strings.TrimSpace(s), "+")
	return strconv.Atoi(s)
}

// evalExpr evaluates a machine expression over one tuple.
func evalExpr(t relation.Tuple, e query.Expr) (relation.Value, error) {
	switch n := e.(type) {
	case *query.ColumnRef:
		v, ok := t.Get(n.Name())
		if !ok {
			return relation.Null(), fmt.Errorf("exec: column %q not found in %s", n.Name(), t.Schema())
		}
		return v, nil
	case *query.Literal:
		if n.IsString {
			return relation.Text(n.Text), nil
		}
		if strings.Contains(n.Text, ".") {
			f, err := strconv.ParseFloat(n.Text, 64)
			if err != nil {
				return relation.Null(), err
			}
			return relation.Float(f), nil
		}
		i, err := strconv.ParseInt(n.Text, 10, 64)
		if err != nil {
			return relation.Null(), err
		}
		return relation.Int(i), nil
	case *query.Not:
		v, err := evalExpr(t, n.X)
		if err != nil {
			return relation.Null(), err
		}
		return relation.Bool(!v.Bool()), nil
	case *query.Binary:
		l, err := evalExpr(t, n.L)
		if err != nil {
			return relation.Null(), err
		}
		r, err := evalExpr(t, n.R)
		if err != nil {
			return relation.Null(), err
		}
		switch n.Op {
		case "AND":
			return relation.Bool(l.Bool() && r.Bool()), nil
		case "OR":
			return relation.Bool(l.Bool() || r.Bool()), nil
		case "=":
			return relation.Bool(l.Equal(r)), nil
		case "<>", "!=":
			return relation.Bool(!l.Equal(r)), nil
		case "<":
			return relation.Bool(l.Compare(r) < 0), nil
		case "<=":
			return relation.Bool(l.Compare(r) <= 0), nil
		case ">":
			return relation.Bool(l.Compare(r) > 0), nil
		case ">=":
			return relation.Bool(l.Compare(r) >= 0), nil
		default:
			return relation.Null(), fmt.Errorf("exec: unknown operator %q", n.Op)
		}
	default:
		return relation.Null(), fmt.Errorf("exec: cannot evaluate %T", e)
	}
}
