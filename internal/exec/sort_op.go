// Sort operators. Both are pipeline breakers: a sort cannot emit its
// first row before seeing its last input row. Both materialize through
// one code path, a spill.Sorter capped at Options.BreakerMemTuples:
// the machine sort is a merge sort over sorted runs, and the crowd sort
// partitions its input by the machine-sortable prefix columns. At cap 0
// the input stays one in-memory run and no file is written; a positive
// cap spills runs to disk, so memory drops from O(input) to O(cap)
// tuples (one crowd-sorted group still materializes while its HITs are
// in flight). Output is identical at any cap. CrowdOrderBy streams its
// *output*: groups are emitted group by group, each as soon as its
// crowd sort settles, so a downstream LIMIT over a grouped sort stops
// paying for later groups. Crowd sort rounds post through the chunked
// poster (exec.crowdSort), inheriting the refusal/expiry retry policies
// and overlapping posting with vote collection inside each group.
package exec

import (
	"context"
	"fmt"

	"qurk/internal/core"
	"qurk/internal/cost"
	"qurk/internal/obstats"
	"qurk/internal/plan"
	"qurk/internal/relation"
	"qurk/internal/spill"
)

type crowdOrderByOp struct {
	x      *executor
	node   *plan.CrowdOrderBy
	phys   plan.SortPhys
	path   string
	child  Operator
	closed bool

	// grouping: the input is sorted by group key — computed once per
	// tuple and carried as a hidden leading column through the runs, so
	// comparisons never rebuild it — and groups are cut from the merged
	// stream one at a time.
	sorter *spill.Sorter
	iter   *spill.Iter
	peek   *relation.Tuple // held-back first (keyed) tuple of the next group

	// windowed sub-sorts (Options.SplitSortGroups): an oversized
	// group's windows re-sort through a second external sorter keyed on
	// a hidden normalized-rank column, so one window — not one group —
	// is the memory high-water mark.
	rankSchema *relation.Schema
	winSorter  *spill.Sorter
	winIter    *spill.Iter
	winIdx     int

	gi      int
	pending []relation.Tuple
	clock   float64
	started bool
	size    int
}

func (o *crowdOrderByOp) Schema() *relation.Schema { return o.child.Schema() }
func (o *crowdOrderByOp) Name() string             { return o.child.Name() }
func (o *crowdOrderByOp) OpLabel() string          { return o.node.Label() + " [" + o.phys.String() + "]" }
func (o *crowdOrderByOp) Inputs() []Operator       { return []Operator{o.child} }

// Breakers implements BreakerDetail.
func (o *crowdOrderByOp) Breakers() []BreakerInfo {
	cap := o.x.eng.Options.BreakerMemTuples
	note := "materializes input before sorting; emits group by group"
	if cap > 0 {
		note = "partitions input into sorted runs by group key; one group in memory at a time"
	}
	return []BreakerInfo{{Kind: BreakerSortInput, MemTuples: cap, Spills: cap > 0, Note: note}}
}

// BreakerNote implements Breaker.
func (o *crowdOrderByOp) BreakerNote() string { return breakerNote(o.Breakers()) }

func (o *crowdOrderByOp) finalReady() float64 { return o.clock }

func (o *crowdOrderByOp) Close() {
	if !o.closed {
		o.closed = true
		o.child.Close()
		o.release()
	}
}

// release frees the spill resources.
func (o *crowdOrderByOp) release() {
	if o.iter != nil {
		o.iter.Close()
		o.iter = nil
	}
	if o.sorter != nil {
		o.sorter.Close()
		o.sorter = nil
	}
	o.releaseWindows()
}

// releaseWindows frees the windowed-merge resources of one group.
func (o *crowdOrderByOp) releaseWindows() {
	if o.winIter != nil {
		o.winIter.Close()
		o.winIter = nil
	}
	if o.winSorter != nil {
		o.winSorter.Close()
		o.winSorter = nil
	}
	o.winIdx = 0
}

// groupKey is the tuple's machine-sortable prefix key (paper §5's
// ORDER BY name, quality(img)); empty GroupCols → one global group.
func (o *crowdOrderByOp) groupKey(t relation.Tuple) (string, error) {
	key := ""
	for _, col := range o.node.GroupCols {
		v, ok := t.Get(col)
		if !ok {
			return "", fmt.Errorf("exec: ORDER BY column %q not found in %s", col, t.Schema())
		}
		key += v.String() + "\x00"
	}
	return key, nil
}

// start drains the input into a sorter keyed on the group key, so the
// merged stream yields the groups in key order, each group's rows in
// input order. Memory is O(cap) tuples when Options.BreakerMemTuples
// is positive and O(input) at 0.
func (o *crowdOrderByOp) start(ctx context.Context) error {
	o.started = true
	keySchema, err := o.leadSchema("\x00groupkey", relation.KindText)
	if err != nil {
		return err
	}
	less := func(a, b relation.Tuple) bool { return a.At(0).Text() < b.At(0).Text() }
	o.sorter = spill.NewSorter(keySchema, o.x.eng.Options.BreakerMemTuples, less)
	o.clock, err = drainEach(ctx, o.child, func(t relation.Tuple) error {
		key, err := o.groupKey(t)
		if err != nil {
			return err
		}
		kt, err := withLead(keySchema, relation.Text(key), t)
		if err != nil {
			return err
		}
		return o.sorter.Add(kt)
	})
	if err != nil {
		return err
	}
	o.iter, err = o.sorter.Sort()
	return err
}

// nextGroup returns the next crowd-sort unit and whether the current
// group continues past it: a whole group normally, or — with
// Options.SplitSortGroups and a positive BreakerMemTuples — the
// group's next window of at most BreakerMemTuples tuples (more=true
// until the group's last window). nil at end of input.
func (o *crowdOrderByOp) nextGroup() (sub *relation.Relation, more bool, err error) {
	// Cut the next run of equal keys from the merged stream, holding
	// back the first tuple of the following group (or the current
	// group's next window). The hidden key column (ordinal 0) is
	// stripped as rows re-enter the child schema.
	winCap := 0
	if o.x.eng.Options.SplitSortGroups {
		winCap = o.x.eng.Options.BreakerMemTuples
	}
	first := o.peek
	o.peek = nil
	if first == nil {
		t, ok, err := o.iter.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		first = &t
	}
	key := first.At(0).Text()
	sub = relation.New(o.child.Name(), o.child.Schema())
	if err := sub.Append(o.stripLead(*first)); err != nil {
		return nil, false, err
	}
	for {
		t, ok, err := o.iter.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return sub, false, nil
		}
		if t.At(0).Text() != key {
			o.peek = &t
			return sub, false, nil
		}
		if winCap > 0 && sub.Len() >= winCap {
			o.peek = &t
			return sub, true, nil
		}
		if err := sub.Append(o.stripLead(t)); err != nil {
			return nil, false, err
		}
	}
}

// replanGroup observes the settled group's true size (fed to the stats
// store for the next run's per-group estimates) and — when mid-run
// re-optimization is on — re-costs the group's sort interface against
// that size: a group much larger than the optimizer assumed can make
// rating strictly cheaper than the comparison cover, so the group
// switches Compare→Rate when rating's quality also clears
// Options.Replan.MinQuality. The decision reads only the materialized
// group, so it is identical at any ExecBatch/StreamChunkHITs setting;
// durable runs checkpoint it for resume verification.
func (o *crowdOrderByOp) replanGroup(sub *relation.Relation, path string) (plan.SortPhys, error) {
	phys := o.phys
	n := sub.Len()
	o.x.observe(o.node.Label(), o.node.Task.Name, obstats.KindGroupSize, float64(n), 1)
	repl := o.x.eng.Options.Replan
	if !repl.Enabled || phys.Method != core.SortCompare || n < 2 {
		return phys, nil
	}
	s := phys.GroupSize
	if s < 2 {
		s = 2
	}
	compareHITs := plan.CompareCoverHITs(n, s)
	rateHITs := cost.RateSortHITs(n, phys.RateBatch)
	if rateHITs < compareHITs && cost.QualityRateSort >= repl.MinQuality {
		phys.Method = core.SortRate
	}
	dig := fnvFold(0, uint64(n))
	dig = fnvFold(dig, uint64(compareHITs))
	dig = fnvFold(dig, uint64(rateHITs))
	var sw uint64
	if phys.Method == core.SortRate {
		sw = 1
	}
	dig = fnvFold(dig, sw)
	if err := o.x.checkpoint(ckptReplan, path, dig, o.clock); err != nil {
		return phys, err
	}
	return phys, nil
}

// leadSchema is the child schema behind one hidden leading column.
func (o *crowdOrderByOp) leadSchema(name string, kind relation.Kind) (*relation.Schema, error) {
	return relation.NewSchema(append([]relation.Column{{Name: name, Kind: kind}}, o.child.Schema().Columns()...)...)
}

// withLead prepends the hidden leading value v to t under schema s.
func withLead(s *relation.Schema, v relation.Value, t relation.Tuple) (relation.Tuple, error) {
	vals := make([]relation.Value, 0, t.Len()+1)
	vals = append(vals, v)
	for c := 0; c < t.Len(); c++ {
		vals = append(vals, t.At(c))
	}
	return relation.NewTuple(s, vals...)
}

// stripLead drops the hidden leading column (group key or window rank).
func (o *crowdOrderByOp) stripLead(t relation.Tuple) relation.Tuple {
	vals := make([]relation.Value, 0, t.Len()-1)
	for c := 1; c < t.Len(); c++ {
		vals = append(vals, t.At(c))
	}
	out, err := relation.NewTuple(o.child.Schema(), vals...)
	if err != nil {
		// The keyed tuple was built from this schema's values; a
		// mismatch here is a programming error.
		panic(err)
	}
	return out
}

// addScoredWindow feeds one crowd-sorted window into the group's merge
// sorter. Each row carries a hidden leading rank column — its position
// in the window's emission order, normalized to (0,1) by window size —
// so the external merge interleaves windows proportionally; equal ranks
// keep window order via the sorter's stable run tie-breaks.
func (o *crowdOrderByOp) addScoredWindow(sub *relation.Relation, order []int) error {
	if o.winSorter == nil {
		rankSchema, err := o.leadSchema("\x00rank", relation.KindFloat)
		if err != nil {
			return err
		}
		o.rankSchema = rankSchema
		less := func(a, b relation.Tuple) bool { return a.At(0).Float() < b.At(0).Float() }
		o.winSorter = spill.NewSorter(rankSchema, o.x.eng.Options.BreakerMemTuples, less)
	}
	m := float64(len(order) + 1)
	for pos, ri := range order {
		rt, err := withLead(o.rankSchema, relation.Float(float64(pos+1)/m), sub.Row(ri))
		if err != nil {
			return err
		}
		if err := o.winSorter.Add(rt); err != nil {
			return err
		}
	}
	return nil
}

func (o *crowdOrderByOp) Next(ctx context.Context) (*Batch, error) {
	if !o.started {
		if err := o.start(ctx); err != nil {
			return nil, err
		}
	}
	for {
		// Emit the current sorted group in bounded batches.
		if len(o.pending) > 0 {
			n := o.size
			if n <= 0 || n > len(o.pending) {
				n = len(o.pending)
			}
			b := batchOfTuples(o.Schema(), o.pending[:n], o.clock)
			o.pending = o.pending[n:]
			return b, nil
		}
		// Drain a completed windowed merge in bounded batches.
		if o.winIter != nil {
			b, done, err := iterBatch(o.winIter, o.Schema(), o.size, o.clock, o.stripLead)
			if done {
				o.releaseWindows()
			}
			if b != nil || err != nil {
				return b, err
			}
			continue
		}
		if o.closed {
			return nil, nil
		}
		sub, more, err := o.nextGroup()
		if err != nil {
			return nil, err
		}
		if sub == nil {
			o.release()
			return nil, nil
		}
		// An oversized group's windows sort under per-window paths (so
		// checkpoints and HIT group IDs stay unique and count-derived);
		// the group index advances only when the group completes.
		windowed := more || o.winSorter != nil
		var path string
		if windowed {
			path = fmt.Sprintf("%s.g%d.w%d", o.path, o.gi, o.winIdx)
			o.winIdx++
		} else {
			path = fmt.Sprintf("%s.g%d", o.path, o.gi)
		}
		if !more {
			o.gi++
		}
		phys, err := o.replanGroup(sub, path)
		if err != nil {
			return nil, err
		}
		order, done, err := o.x.crowdSort(ctx, sub, o.node, phys, path, o.clock)
		if err != nil {
			return nil, err
		}
		// Durable runs checkpoint each settled group (or window): the
		// breaker's materialized rows plus the crowd-resolved
		// permutation.
		if err := o.x.checkpoint(ckptSortGroup, path, digestSortGroup(order, sub), done); err != nil {
			return nil, err
		}
		if done > o.clock {
			o.clock = done
		}
		if o.node.Desc {
			for i, k := 0, len(order)-1; i < k; i, k = i+1, k-1 {
				order[i], order[k] = order[k], order[i]
			}
		}
		if windowed {
			if err := o.addScoredWindow(sub, order); err != nil {
				return nil, err
			}
			if more {
				continue
			}
			// Last window: merge the group's sub-sorts externally.
			it, err := o.winSorter.Sort()
			if err != nil {
				return nil, err
			}
			o.winIter = it
			continue
		}
		o.pending = make([]relation.Tuple, 0, len(order))
		for _, ri := range order {
			o.pending = append(o.pending, sub.Row(ri))
		}
	}
}

type machineOrderByOp struct {
	node    *plan.MachineOrderBy
	child   Operator
	size    int
	cap     int
	closed  bool
	started bool
	sorter  *spill.Sorter
	iter    *spill.Iter
	ready   float64
}

func (o *machineOrderByOp) Schema() *relation.Schema { return o.child.Schema() }
func (o *machineOrderByOp) Name() string             { return o.child.Name() }
func (o *machineOrderByOp) OpLabel() string          { return o.node.Label() }
func (o *machineOrderByOp) Inputs() []Operator       { return []Operator{o.child} }

// Breakers implements BreakerDetail.
func (o *machineOrderByOp) Breakers() []BreakerInfo {
	note := "materializes input before sorting"
	if o.cap > 0 {
		note = "external merge sort over spilled runs"
	}
	return []BreakerInfo{{Kind: BreakerSortInput, MemTuples: o.cap, Spills: o.cap > 0, Note: note}}
}

// BreakerNote implements Breaker.
func (o *machineOrderByOp) BreakerNote() string { return breakerNote(o.Breakers()) }

func (o *machineOrderByOp) finalReady() float64 { return o.ready }

func (o *machineOrderByOp) Close() {
	if !o.closed {
		o.closed = true
		o.child.Close()
		o.release()
	}
}

// release frees the sorter and its merge stream.
func (o *machineOrderByOp) release() {
	if o.iter != nil {
		o.iter.Close()
		o.iter = nil
	}
	if o.sorter != nil {
		o.sorter.Close()
		o.sorter = nil
	}
}

// less is the ORDER BY comparison over the machine columns.
func (o *machineOrderByOp) less(a, b relation.Tuple) bool {
	for i, col := range o.node.Cols {
		cmp := a.MustGet(col).Compare(b.MustGet(col))
		if cmp == 0 {
			continue
		}
		if o.node.Desc[i] {
			return cmp > 0
		}
		return cmp < 0
	}
	return false
}

func (o *machineOrderByOp) Next(ctx context.Context) (*Batch, error) {
	if !o.started {
		o.started = true
		for _, col := range o.node.Cols {
			if !o.child.Schema().Has(col) {
				return nil, fmt.Errorf("exec: ORDER BY column %q not found", col)
			}
		}
		o.sorter = spill.NewSorter(o.child.Schema(), o.cap, o.less)
		var err error
		if o.ready, err = drainEach(ctx, o.child, o.sorter.Add); err != nil {
			return nil, err
		}
		if o.iter, err = o.sorter.Sort(); err != nil {
			return nil, err
		}
	}
	if o.closed || o.iter == nil {
		return nil, nil
	}
	b, done, err := iterBatch(o.iter, o.child.Schema(), o.size, o.ready, nil)
	if done {
		o.release()
	}
	return b, err
}

// iterBatch reads up to size tuples (all of them when size <= 0) of a
// merged sort stream into one batch stamped ready, passing each through
// conv when it is set. It returns a nil batch once the stream has no
// more tuples; done reports that the stream ended, so the caller can
// release it. The batch is released on every error.
func iterBatch(it *spill.Iter, schema *relation.Schema, size int, ready float64, conv func(relation.Tuple) relation.Tuple) (b *Batch, done bool, err error) {
	n := size
	if n <= 0 {
		n = 1 << 30
	}
	cols := relation.NewColumnBatch(schema, size)
	for cols.Len() < n {
		t, ok, err := it.Next()
		if err != nil {
			cols.Release()
			return nil, false, err
		}
		if !ok {
			done = true
			break
		}
		if conv != nil {
			t = conv(t)
		}
		cols.AppendTuple(t)
	}
	if cols.Len() == 0 {
		cols.Release()
		return nil, done, nil
	}
	return newBatch(cols, ready), done, nil
}
