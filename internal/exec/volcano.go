// This file defines the streaming (Volcano-model) operator interface
// and the machine-side operators. Every plan node compiles to an
// Operator; tuples flow downstream in bounded batches pulled with
// Next, so a downstream crowd operator can start posting HITs while
// its upstream is still collecting answers. Crowd operators live in
// stream.go (filters, generatives), join_op.go, and sort_op.go.
//
// Determinism contract: an operator's observable output — the tuple
// sequence and every HIT it posts (group ID, HIT ID, question content)
// — must depend only on the plan, the engine configuration, and its
// input sequence. Never on wall-clock timing, GOMAXPROCS, or the batch
// size tuples happen to arrive in. All flush decisions are count-based
// for this reason.
package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"qurk/internal/relation"
)

// Batch is a bounded run of rows flowing between operators, stamped
// with the simulated crowd clock (hours) at which its rows became
// available. Crowd operators advance Ready by their chunk makespans;
// machine operators pass it through. The root's maximum Ready is the
// query's pipelined end-to-end makespan.
//
// Rows are stored as schema-aligned column vectors (see
// relation.ColumnBatch); operators read them through the Value/Row
// accessors. Row and Rows are the row-view shim: arena-backed
// relation.Tuples that stay valid after the batch's vectors recycle,
// so combiners and the public row surface are unchanged by the
// columnar layout.
type Batch struct {
	Cols  *relation.ColumnBatch
	Ready float64
}

// newBatch wraps column vectors with a clock stamp.
func newBatch(cols *relation.ColumnBatch, ready float64) *Batch {
	return &Batch{Cols: cols, Ready: ready}
}

// batchOfTuples builds a columnar batch from assembled rows — the
// emission path for operators that buffer tuples.
func batchOfTuples(schema *relation.Schema, tuples []relation.Tuple, ready float64) *Batch {
	return &Batch{Cols: relation.ColumnBatchOf(schema, tuples), Ready: ready}
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int {
	if b == nil || b.Cols == nil {
		return 0
	}
	return b.Cols.Len()
}

// Schema returns the batch's row schema.
func (b *Batch) Schema() *relation.Schema {
	if b == nil || b.Cols == nil {
		return nil
	}
	return b.Cols.Schema()
}

// Row returns row i as an arena-backed tuple.
func (b *Batch) Row(i int) relation.Tuple { return b.Cols.Row(i) }

// Rows returns all rows as arena-backed tuples. The slice is shared;
// callers must not mutate it.
func (b *Batch) Rows() []relation.Tuple {
	if b == nil || b.Cols == nil {
		return nil
	}
	return b.Cols.Rows()
}

// Operator is one node of the streaming executor: a pull-based
// iterator over tuple batches (the Volcano model, batched).
type Operator interface {
	// Schema describes the emitted tuples; available before Next.
	Schema() *relation.Schema
	// Name is the emitted relation's name.
	Name() string
	// Next returns the next batch, or nil at end of stream. A non-nil
	// batch always carries at least one tuple. Next must not be called
	// again after it returns nil or an error.
	Next(ctx context.Context) (*Batch, error)
	// Close tells the operator no more batches will be pulled. It
	// propagates upstream so producers stop posting crowd work, and is
	// idempotent. Close does not recall HITs already in flight.
	Close()
}

// Breaker is implemented by operators that must consume their whole
// input before emitting anything (sort, QualityAdjust-combined crowd
// operators, join build sides). BreakerNote documents what is buffered
// and its memory bound.
type Breaker interface {
	BreakerNote() string
}

// BreakerKind classifies what a pipeline breaker buffers.
type BreakerKind string

// The breaker kinds the streaming executor produces.
const (
	// BreakerSortInput is a sort's materialized input.
	BreakerSortInput BreakerKind = "sort-input"
	// BreakerJoinBuild is a join's materialized build (right) side.
	BreakerJoinBuild BreakerKind = "join-build"
	// BreakerJoinCandidates is a join's buffer held until end of stream:
	// SmartBatch's surviving pairs awaiting grid layout, or the probe
	// side awaiting automatic feature selection.
	BreakerJoinCandidates BreakerKind = "join-candidates"
	// BreakerVoteBuffer is the full vote matrix a stateful (non
	// per-question) combiner needs in one Combine call.
	BreakerVoteBuffer BreakerKind = "vote-buffer"
)

// BreakerInfo describes one pipeline-breaking buffer of an operator in
// machine-readable form, so tools (Client.Explain, dashboards) can render
// "spills at N tuples" instead of parsing free text.
type BreakerInfo struct {
	// Kind classifies the buffered state.
	Kind BreakerKind
	// MemTuples is the in-memory tuple bound (Options.BreakerMemTuples
	// when the operator honors it); 0 means unbounded — O(input).
	MemTuples int
	// Spills reports whether the operator spills to disk past
	// MemTuples instead of growing without bound.
	Spills bool
	// Note is the human-readable description of what is buffered.
	Note string
}

// String renders the breaker with its memory bound appended.
func (bi BreakerInfo) String() string {
	switch {
	case bi.Spills && bi.MemTuples > 0:
		return fmt.Sprintf("%s (spills at %d tuples)", bi.Note, bi.MemTuples)
	case bi.Spills:
		return bi.Note + " (spillable)"
	default:
		return bi.Note + " (O(input) memory)"
	}
}

// BreakerDetail is the machine-readable companion to Breaker: the
// operator's pipeline-breaking buffers, one BreakerInfo each. An empty
// slice means the operator currently streams.
type BreakerDetail interface {
	Breakers() []BreakerInfo
}

// breakerNote renders a breaker list as the legacy free-text note.
func breakerNote(infos []BreakerInfo) string {
	var parts []string
	for _, bi := range infos {
		parts = append(parts, bi.String())
	}
	return strings.Join(parts, "; ")
}

// PipelineBreakers walks a compiled operator tree and returns every
// operator's breaker descriptions keyed by its display label, in
// depth-first plan order. The runtime companion to plan.Explain for
// memory budgeting.
func PipelineBreakers(op Operator) []OpBreakers {
	var out []OpBreakers
	var walk func(Operator)
	walk = func(o Operator) {
		if bd, ok := o.(BreakerDetail); ok {
			if infos := bd.Breakers(); len(infos) > 0 {
				out = append(out, OpBreakers{Label: opLabel(o), Breakers: infos})
			}
		}
		for _, in := range opInputs(o) {
			walk(in)
		}
	}
	walk(op)
	return out
}

// OpBreakers pairs an operator's display label with its breakers.
type OpBreakers struct {
	// Label is the operator's display label (OpLabel).
	Label string
	// Breakers lists the operator's pipeline-breaking buffers.
	Breakers []BreakerInfo
}

// finalClock reports the virtual-clock time at which an operator's
// last decision completed. Rejected tuples never flow downstream, but
// the crowd time spent deciding them is still part of the query's
// makespan — without this, a query whose tail tuples are all filtered
// out would under-report PipelineMakespanHours.
type finalClock interface {
	finalReady() float64
}

// readyOf returns an operator's final clock, or 0 when it has none
// (machine-instant sources).
func readyOf(op Operator) float64 {
	if fc, ok := op.(finalClock); ok {
		return fc.finalReady()
	}
	return 0
}

// --- Source: scan ---

type scanOp struct {
	rel  *relation.Relation
	pos  int
	size int
	done bool
}

func newScanOp(rel *relation.Relation, batch int) *scanOp {
	return &scanOp{rel: rel, size: batch}
}

func (s *scanOp) Schema() *relation.Schema { return s.rel.Schema() }
func (s *scanOp) Name() string             { return s.rel.Name() }
func (s *scanOp) Close()                   { s.done = true }

func (s *scanOp) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.done || s.pos >= s.rel.Len() {
		return nil, nil
	}
	end := s.pos + s.size
	if end > s.rel.Len() {
		end = s.rel.Len()
	}
	cols := relation.NewColumnBatch(s.rel.Schema(), end-s.pos)
	for ; s.pos < end; s.pos++ {
		cols.AppendTuple(s.rel.Row(s.pos))
	}
	return newBatch(cols, 0), nil
}

// --- Machine filter ---

type machineFilterOp struct {
	child Operator
	pred  func(relation.Tuple) (bool, error)
	label string
	seen  float64
}

func (f *machineFilterOp) Schema() *relation.Schema { return f.child.Schema() }
func (f *machineFilterOp) Name() string             { return f.child.Name() }
func (f *machineFilterOp) Close()                   { f.child.Close() }

func (f *machineFilterOp) finalReady() float64 {
	if cr := readyOf(f.child); cr > f.seen {
		return cr
	}
	return f.seen
}

func (f *machineFilterOp) Next(ctx context.Context) (*Batch, error) {
	for {
		in, err := f.child.Next(ctx)
		if err != nil || in == nil {
			return nil, err
		}
		if in.Ready > f.seen {
			f.seen = in.Ready
		}
		var out *relation.ColumnBatch
		n := in.Len()
		for i := 0; i < n; i++ {
			ok, err := f.pred(in.Row(i))
			if err != nil {
				return nil, err
			}
			if ok {
				if out == nil {
					out = relation.NewColumnBatch(in.Schema(), n-i)
				}
				out.AppendBatchRow(in.Cols, i)
			}
		}
		if out != nil {
			return newBatch(out, in.Ready), nil
		}
		// A fully-rejected batch yields nothing; keep pulling.
	}
}

// --- Project ---

type projectOp struct {
	child  Operator
	schema *relation.Schema
	ords   []int
	name   string
}

func (p *projectOp) Schema() *relation.Schema { return p.schema }
func (p *projectOp) Name() string             { return p.name }
func (p *projectOp) Close()                   { p.child.Close() }
func (p *projectOp) finalReady() float64      { return readyOf(p.child) }

func (p *projectOp) Next(ctx context.Context) (*Batch, error) {
	in, err := p.child.Next(ctx)
	if err != nil || in == nil {
		return nil, err
	}
	// Zero-copy: projection selects column vectors, no per-row work.
	return newBatch(in.Cols.Project(p.schema, p.ords), in.Ready), nil
}

// --- Limit ---

// limitOp emits the first n tuples, then closes its upstream so crowd
// operators stop posting HITs — the streaming executor's LIMIT
// short-circuit. Because upstream chunk lookahead is bounded
// (Options.StreamLookahead), at most a few chunks beyond the cutoff
// are ever paid for.
type limitOp struct {
	child   Operator
	n       int
	emitted int
	closed  bool
	seen    float64
}

func (l *limitOp) Schema() *relation.Schema { return l.child.Schema() }
func (l *limitOp) Name() string             { return l.child.Name() }

// finalReady reports only what the limit actually waited for: once it
// cut upstream off, later decisions are not on the query's critical
// path.
func (l *limitOp) finalReady() float64 { return l.seen }

func (l *limitOp) Close() {
	if !l.closed {
		l.closed = true
		l.child.Close()
	}
}

func (l *limitOp) Next(ctx context.Context) (*Batch, error) {
	if l.closed || (l.n >= 0 && l.emitted >= l.n) {
		l.Close()
		return nil, nil
	}
	in, err := l.child.Next(ctx)
	if err != nil {
		return nil, err
	}
	if in == nil {
		if cr := readyOf(l.child); cr > l.seen {
			l.seen = cr
		}
		return nil, nil
	}
	if in.Ready > l.seen {
		l.seen = in.Ready
	}
	if l.n >= 0 && l.emitted+in.Len() >= l.n {
		keep := l.n - l.emitted
		l.emitted = l.n
		// Cut upstream off immediately: no further pulls, no further
		// HIT chunks posted.
		l.Close()
		if keep == 0 {
			return nil, nil
		}
		in.Cols = in.Cols.Slice(0, keep)
		return in, nil
	}
	l.emitted += in.Len()
	return in, nil
}

// --- Concurrent (exchange) ---

// concurrentOp decouples a subtree onto its own goroutine with a
// bounded batch buffer, so independent subtrees (join build and probe
// sides) make crowd progress simultaneously — the streaming equivalent
// of the materializing executor's goroutine-per-operator overlap.
// Purely a scheduling change: batch content and order are untouched.
type concurrentOp struct {
	child      Operator
	ch         chan asyncBatch
	cancel     context.CancelFunc
	once       sync.Once
	started    bool
	stopped    chan struct{} // closed when the producer goroutine exits
	done       bool
	closed     bool
	seen       float64
	childFinal float64
}

type asyncBatch struct {
	b   *Batch
	err error
}

func newConcurrentOp(child Operator, depth int) *concurrentOp {
	if depth < 1 {
		depth = 1
	}
	return &concurrentOp{child: child, ch: make(chan asyncBatch, depth), stopped: make(chan struct{})}
}

func (c *concurrentOp) Schema() *relation.Schema { return c.child.Schema() }
func (c *concurrentOp) Name() string             { return c.child.Name() }

func (c *concurrentOp) finalReady() float64 {
	if c.childFinal > c.seen {
		return c.childFinal
	}
	return c.seen
}

func (c *concurrentOp) start(ctx context.Context) {
	c.once.Do(func() {
		c.started = true
		ctx, c.cancel = context.WithCancel(ctx)
		go func() {
			defer close(c.stopped)
			defer close(c.ch)
			for {
				b, err := c.child.Next(ctx)
				if err != nil || b == nil {
					if err != nil {
						select {
						case c.ch <- asyncBatch{nil, err}:
						case <-ctx.Done():
						}
					}
					return
				}
				select {
				case c.ch <- asyncBatch{b, nil}:
				case <-ctx.Done():
					return
				}
			}
		}()
	})
}

func (c *concurrentOp) Next(ctx context.Context) (*Batch, error) {
	if c.done || c.closed {
		return nil, nil
	}
	c.start(ctx)
	select {
	case ab, ok := <-c.ch:
		if !ok {
			// Producer exited; reading the child is race-free now.
			c.done = true
			c.childFinal = readyOf(c.child)
			return nil, nil
		}
		if ab.b != nil && ab.b.Ready > c.seen {
			c.seen = ab.b.Ready
		}
		return ab.b, ab.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (c *concurrentOp) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.cancel != nil {
		c.cancel()
	}
	// The producer goroutine may be mid-Next on the child; wait for it
	// to observe cancellation before closing the child underneath it.
	if c.started {
		<-c.stopped
	}
	c.child.Close()
}

// --- Helpers ---

// drainEach pulls op to exhaustion, handing each tuple to add, and
// returns the time the last batch became available. Pipeline breakers
// fill their materialized state with it.
func drainEach(ctx context.Context, op Operator, add func(relation.Tuple) error) (float64, error) {
	ready := 0.0
	for {
		b, err := op.Next(ctx)
		if err != nil {
			return 0, err
		}
		if b == nil {
			return max(ready, readyOf(op)), nil
		}
		for _, t := range b.Rows() {
			if err := add(t); err != nil {
				return 0, err
			}
		}
		ready = max(ready, b.Ready)
	}
}

// emitQueue turns an operator's internally accumulated tuples into
// bounded output batches.
type emitQueue struct {
	buf   []relation.Tuple
	ready float64
	size  int
}

func (q *emitQueue) push(t relation.Tuple, ready float64) {
	q.buf = append(q.buf, t)
	if ready > q.ready {
		q.ready = ready
	}
}

// advance stamps the queue clock without emitting a tuple (a rejected
// tuple still gates downstream ordering on its decision time).
func (q *emitQueue) advance(ready float64) {
	if ready > q.ready {
		q.ready = ready
	}
}

func (q *emitQueue) empty() bool { return len(q.buf) == 0 }

func (q *emitQueue) pop(schema *relation.Schema) *Batch {
	if len(q.buf) == 0 {
		return nil
	}
	n := q.size
	if n <= 0 || n > len(q.buf) {
		n = len(q.buf)
	}
	out := batchOfTuples(schema, q.buf[:n], q.ready)
	q.buf = q.buf[:copy(q.buf, q.buf[n:])]
	return out
}

// Describe renders the streaming operator tree with pipeline breakers
// marked ⇥ — the runtime companion to plan.Explain.
func Describe(op Operator) string {
	var b strings.Builder
	describe(&b, op, 0)
	return b.String()
}

type treeNode interface {
	Inputs() []Operator
	OpLabel() string
}

// opLabel is the display label shared by Describe and PipelineBreakers.
func opLabel(op Operator) string {
	if tn, ok := op.(treeNode); ok {
		return tn.OpLabel()
	}
	switch o := op.(type) {
	case *scanOp:
		return fmt.Sprintf("Scan(%s)", o.Name())
	case *machineFilterOp:
		return o.label
	case *projectOp:
		return "Project"
	case *limitOp:
		return fmt.Sprintf("Limit(%d)", o.n)
	case *concurrentOp:
		return "Exchange"
	}
	return op.Name()
}

// opInputs is the child list shared by Describe and PipelineBreakers.
func opInputs(op Operator) []Operator {
	if tn, ok := op.(treeNode); ok {
		return tn.Inputs()
	}
	switch o := op.(type) {
	case *machineFilterOp:
		return []Operator{o.child}
	case *projectOp:
		return []Operator{o.child}
	case *limitOp:
		return []Operator{o.child}
	case *concurrentOp:
		return []Operator{o.child}
	}
	return nil
}

func describe(b *strings.Builder, op Operator, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString("- " + opLabel(op))
	if br, ok := op.(Breaker); ok && br.BreakerNote() != "" {
		b.WriteString("  ⇥ " + br.BreakerNote())
	}
	b.WriteByte('\n')
	for _, in := range opInputs(op) {
		describe(b, in, depth+1)
	}
}
