// Streaming crowd join: the paper's block nested loop (§3.1) with one
// HIT per predicate evaluation, run as one pipeline whatever the
// interface. The build (right) side is always materialized — a block
// nested loop needs one full side — into a spill table: in memory at
// Options.BreakerMemTuples 0, and in disk partitions of cap tuples,
// bounding memory at O(cap), when the cap is positive. The probe (left)
// side always streams. With POSSIBLY features its extraction HITs are
// minted per arriving batch and posted through the chunked poster, the
// build side's extraction posts through the same poster, and pair
// generation consumes probe tuples as their feature votes resolve; a
// join without features is the zero-feature case, whose pairs all pass
// and whose probe batches are pulled only once every buffered tuple is
// paired. SmartBatch (§3.1.3) buffers the surviving pairs in scan order
// and lays them out as grids at end of stream. §3.2 automatic feature
// selection is a gate in the same loop: the probe side's extraction
// waits for its end of stream (the κ tally needs the subject count),
// the sample join runs once both sides are extracted, and pairs are
// then matched on the kept features only. Posting and collection stay
// chunked and incremental throughout, which is what lets LIMIT stop the
// spend and cancellation stop the wait.
package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"qurk/internal/combine"
	"qurk/internal/cost"
	"qurk/internal/hit"
	"qurk/internal/join"
	"qurk/internal/obstats"
	"qurk/internal/plan"
	"qurk/internal/poster"
	"qurk/internal/relation"
)

// jslot tracks one distinct candidate pair: votes accumulate across
// the questions that reference it (duplicate rows can repeat a pair),
// and the pair resolves once every such question's chunk completed.
type jslot struct {
	pair     join.Pair
	votes    []combine.Vote
	pending  int
	decided  bool
	accepted bool
	// served marks a pair resolved from the shared answer store at mint
	// time; later duplicate occurrences keep the verdict without posting.
	served bool
	ready  float64
}

type crowdJoinOp struct {
	x     *executor
	node  *plan.CrowdJoin
	phys  plan.JoinPhys
	path  string
	left  Operator
	right Operator

	schema *relation.Schema
	label  string

	comb    combine.Combiner
	perQ    bool
	builder *hit.Builder
	post    *poster.Poster
	acct    *opAcct
	seq     int

	started   bool
	rightRel  *buildTable
	leftEOS   bool
	pairsDone bool

	// POSSIBLY feature extraction (both nil when the join applies no
	// features): xl extracts the probe side per arriving batch, xr the
	// build side — fed incrementally inside step so its queued questions
	// stay bounded even when the build side spilled to disk. fields are
	// the features pairs are matched on: all of them, or the subset §3.2
	// selection kept. selecting holds the probe side's extraction until
	// its end of stream and pair generation until selection ran.
	xl, xr    *extStream
	xrFed     int // build rows handed to xr so far
	fields    []string
	selecting bool

	leftRows  []relation.Tuple // probe tuples awaiting pair generation
	genLeft   int              // next probe ordinal to pair
	genRight  int              // next build row for genLeft
	pairClock float64          // max ready time of consumed tuples

	// prefilter marks the streaming-prefilter scope (per-pair interface,
	// POSSIBLY features, no §3.2 selection): pair counts over the scanned
	// probe prefix feed the pass-fraction observation and the one-shot
	// mid-run re-plan decision (Options.Replan). useSmart buffers the
	// surviving pairs for grid layout at end of stream — from the start
	// under SmartBatch, after a Naive→Smart re-plan otherwise — as
	// (probe, build) ordinals, keeping their probe tuples buffered.
	prefilter bool
	scanPairs int
	passPairs int
	replanned bool
	useSmart  bool
	tail      [][2]int

	qbuf     []hit.Question
	slots    []*jslot
	slotOf   map[string]int
	eosVotes []combine.Vote
	emit     emitQueue
	emitAt   int
	clock    float64
	closed   bool
	done     bool
	final    bool
}

func (j *crowdJoinOp) Schema() *relation.Schema { return j.schema }
func (j *crowdJoinOp) Name() string             { return "join" }
func (j *crowdJoinOp) OpLabel() string          { return j.label + " [" + j.phys.String() + "]" }
func (j *crowdJoinOp) Inputs() []Operator       { return []Operator{j.left, j.right} }

// Breakers implements BreakerDetail: the build side always
// materializes (spilling past a positive Options.BreakerMemTuples);
// SmartBatch buffers its surviving candidates and §3.2 selection the
// probe side until end of stream; a stateful combiner additionally
// buffers all pair votes.
func (j *crowdJoinOp) Breakers() []BreakerInfo {
	cap := j.x.eng.Options.BreakerMemTuples
	infos := []BreakerInfo{{
		Kind:      BreakerJoinBuild,
		MemTuples: cap,
		Spills:    cap > 0,
		Note:      "materializes build side only; probe side streams",
	}}
	if j.useSmart {
		infos = append(infos, BreakerInfo{
			Kind: BreakerJoinCandidates,
			Note: "buffers surviving pairs for grid layout at end of stream",
		})
	}
	if j.xl != nil && j.phys.AutoSelectFeatures {
		infos = append(infos, BreakerInfo{
			Kind: BreakerJoinCandidates,
			Note: "buffers the probe side until feature selection ran",
		})
	}
	if !j.perQ {
		infos = append(infos, BreakerInfo{
			Kind: BreakerVoteBuffer,
			Note: "buffers all pair votes for " + j.comb.Name(),
		})
	}
	return infos
}

// BreakerNote implements Breaker.
func (j *crowdJoinOp) BreakerNote() string { return breakerNote(j.Breakers()) }

// initExtraction sets up both sides' extraction streams at build time
// so the extract-left/extract-right Stats slots appear in
// deterministic plan order, and fixes the join's candidate layout.
// Features apply when the node has some and the physical plan uses
// them (the optimizer may decide pre-filtering does not pay).
func (j *crowdJoinOp) initExtraction() error {
	j.useSmart = j.phys.Algorithm == join.Smart
	lf, rf := j.node.LeftFeatures, j.node.RightFeatures
	if !j.phys.UseFeatures || len(lf) == 0 {
		return nil
	}
	for _, f := range lf {
		j.fields = append(j.fields, f.Field)
	}
	j.selecting = j.phys.AutoSelectFeatures
	j.prefilter = !j.useSmart && !j.selecting
	var err error
	j.xl, err = j.x.newExtStream("extract-left",
		j.x.groupID("extract-left/"+j.node.Task.Name, j.path+".xl"), lf, &j.phys, &j.seq)
	if err != nil {
		return err
	}
	j.xr, err = j.x.newExtStream("extract-right",
		j.x.groupID("extract-right/"+j.node.Task.Name, j.path+".xr"), rf, &j.phys, &j.seq)
	return err
}

// finalReady includes rejected candidate pairs' decision times.
func (j *crowdJoinOp) finalReady() float64 {
	r := j.emit.ready
	for _, in := range []Operator{j.left, j.right} {
		if cr := readyOf(in); cr > r {
			r = cr
		}
	}
	return r
}

func (j *crowdJoinOp) Close() {
	if !j.closed {
		j.closed = true
		j.left.Close()
		j.right.Close()
		if j.rightRel != nil {
			j.rightRel.Close()
		}
	}
}

func (j *crowdJoinOp) Next(ctx context.Context) (*Batch, error) {
	if !j.started {
		if err := j.start(ctx); err != nil {
			return nil, err
		}
	}
	for {
		for j.emitAt < len(j.slots) && j.slots[j.emitAt].decided {
			s := j.slots[j.emitAt]
			if s.accepted {
				j.emit.push(s.pair.Left.Concat(s.pair.Right, j.schema), s.ready)
			} else {
				j.emit.advance(s.ready)
			}
			// Release the pair's tuples and votes; the slot struct stays
			// (duplicate rows can re-yield the pair key later — those
			// occurrences keep the already-decided verdict).
			s.pair = join.Pair{}
			s.votes = nil
			j.emitAt++
		}
		if !j.emit.empty() {
			return j.emit.pop(j.schema), nil
		}
		if j.done {
			return nil, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := j.step(ctx); err != nil {
			return nil, err
		}
	}
}

// start materializes the build side before any pair HIT is posted. The
// probe subtree is exchange-wrapped and primed first, so it makes crowd
// progress while the build side drains — the paper's §2.5 pipelined
// left-deep execution. The build side's extraction questions are minted
// inside step and posted and collected chunk by chunk, interleaved with
// the probe side's.
func (j *crowdJoinOp) start(ctx context.Context) error {
	j.started = true
	if c, ok := j.left.(*concurrentOp); ok {
		c.start(ctx)
	}
	right, rReady, err := drainBuildTable(ctx, j.right, j.x.eng.Options.BreakerMemTuples)
	if err != nil {
		return err
	}
	// Durable runs checkpoint the materialized build side (spilled
	// partitions keep a running digest, so this is free of re-reads).
	if err := j.x.checkpoint(ckptJoinBuild, j.path+".b", right.Digest(), rReady); err != nil {
		return err
	}
	j.rightRel = right
	j.clock, j.pairClock = rReady, rReady
	if !j.selecting {
		return nil
	}
	// An empty side leaves no candidates to sample and no votes to rate:
	// both sides are then extracted with every feature kept.
	if right.Len() == 0 {
		j.selecting = false
		return nil
	}
	return j.xr.tallyKappa(right.Len())
}

// pullLeft buffers the probe side's next batch for pair generation and
// mints its extraction questions — under §3.2 selection only at end of
// stream, for the whole buffered side at once. Without features a
// tuple's pairs can post as soon as its batch and the build side are
// ready.
func (j *crowdJoinOp) pullLeft(ctx context.Context) error {
	in, err := j.left.Next(ctx)
	if err != nil {
		return err
	}
	if in == nil {
		j.leftEOS = true
		if j.xl == nil {
			return nil
		}
		if j.selecting {
			if len(j.leftRows) == 0 {
				j.selecting = false
			} else if err := j.xl.tallyKappa(len(j.leftRows)); err != nil {
				return err
			}
			for _, t := range j.leftRows {
				if err := j.xl.ingest(t); err != nil {
					return err
				}
			}
		}
		return j.xl.finishInput()
	}
	if in.Ready > j.clock {
		j.clock = in.Ready
	}
	if j.xl == nil && in.Ready > j.pairClock {
		j.pairClock = in.Ready
	}
	for _, t := range in.Rows() {
		j.leftRows = append(j.leftRows, t)
		if j.xl != nil && !j.selecting {
			if err := j.xl.ingest(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// pullsAhead reports whether step should buffer the next probe batch
// before generating pairs. Only a join with features pulls ahead — its
// extraction needs tuples in flight — and only within a demand window
// that keeps extraction busy without racing to the end of the input, so
// a LIMIT that closes the pipeline leaves the un-ingested tail's
// extraction HITs unposted. Stateful combiners resolve only at end of
// stream and §3.2 selection needs the whole probe side, so neither gets
// a window.
func (j *crowdJoinOp) pullsAhead() bool {
	if j.xl == nil || j.leftEOS || j.closed || j.xl.post.Backlogged() {
		return false
	}
	opts := &j.x.eng.Options
	window := opts.StreamLookahead * opts.StreamChunkHITs * j.xl.batch
	return j.selecting || !j.xl.perQ || window <= 0 || len(j.leftRows)-j.genLeft < window
}

// feedBuild hands the build side's extraction a bounded slice of rows:
// enough to keep its poster busy, never the whole (possibly spilled)
// side at once.
func (j *crowdJoinOp) feedBuild() error {
	n := j.rightRel.Len()
	if j.xrFed < n && !j.xr.post.Backlogged() {
		want := j.x.eng.Options.StreamChunkHITs * j.xr.batch
		for k := 0; k < want && j.xrFed < n; k++ {
			row := j.rightRel.Row(j.xrFed)
			// Surface a spill read error before minting a question from
			// the zero tuple it returned — posting it would spend real
			// money on garbage.
			if err := j.rightRel.Err(); err != nil {
				return err
			}
			if err := j.xr.ingest(row); err != nil {
				return err
			}
			j.xrFed++
		}
	}
	if j.xrFed >= n && !j.xr.eos {
		return j.xr.finishInput()
	}
	return nil
}

// oldestInFlight returns the index of the poster whose oldest in-flight
// chunk was posted first — posters of one operator share sequence
// numbers, so this fixes a deterministic collection order — or -1 when
// nothing is in flight.
func oldestInFlight(ps ...*poster.Poster) int {
	best := -1
	for i, p := range ps {
		if seq := p.OldestSeq(); seq >= 0 && (best < 0 || seq < ps[best].OldestSeq()) {
			best = i
		}
	}
	return best
}

// collectOldest collects the globally oldest in-flight chunk across the
// join's posters (by shared sequence number, so interleaving is
// deterministic); it reports false when nothing is in flight.
func (j *crowdJoinOp) collectOldest(ctx context.Context) (bool, error) {
	if j.xl == nil {
		if j.post.OldestSeq() < 0 {
			return false, nil
		}
		return true, j.collectChunk(ctx)
	}
	switch oldestInFlight(j.xr.post, j.xl.post, j.post) {
	case 0:
		return true, j.xr.collect(ctx)
	case 1:
		return true, j.xl.collect(ctx)
	case 2:
		return true, j.collectChunk(ctx)
	}
	return false, nil
}

// selectFeatures implements §3.2's automatic feature pruning, once both
// sides are extracted: a crowd join over a sample of the cross product,
// posted through the chunked poster with the join's own interface,
// supplies reference matches, and ChooseFeatures applies the paper's
// three discard rules (κ ambiguity, result loss, selectivity). Pair
// generation then matches on the kept features only, no earlier than
// the sample join finished.
func (j *crowdJoinOp) selectFeatures(ctx context.Context) error {
	j.selecting = false
	x, task := j.x, j.node.Task.Name
	cfg := j.phys.FeatureSelection
	if cfg.SampleFrac == 0 {
		cfg.SampleFrac = 0.15
	}
	if cfg.Seed == 0 {
		cfg.Seed = x.eng.Options.Seed + 1
	}
	left, right := probeRows(j.leftRows), j.rightRel
	le, re := j.xl.extraction(left), j.xr.extraction(right)
	sample := join.SamplePairs(left, right, cfg.SampleFrac, rand.New(rand.NewSource(cfg.Seed)))
	if err := right.Err(); err != nil {
		return err
	}
	gid := x.groupID("select-sample/"+task, j.path+".fs")
	var questions []hit.Question
	if j.phys.Algorithm == join.Smart {
		grids, err := join.SmartGridHITs(hit.NewBuilder(gid, j.phys.Assignments, 1), join.SliceSeq(sample),
			func(join.Pair) {}, task, j.phys.GridRows, j.phys.GridCols)
		if err != nil {
			return err
		}
		for _, h := range grids {
			questions = append(questions, h.Questions...)
		}
	} else {
		for _, p := range sample {
			questions = append(questions, hit.Question{ID: p.Key(), Kind: hit.JoinPairQ, Task: task, Left: p.Left, Right: p.Right})
		}
	}
	var votes []combine.Vote
	done, _, err := x.runQuestions(ctx, "feature-selection sample join", gid, questions, j.pairBatch(), j.phys.Assignments,
		max(j.clock, j.xl.lastDone, j.xr.lastDone),
		func(q *hit.Question, as []hit.CachedAnswer) {
			forEachPairVotes(q, as, func(_ string, vs []combine.Vote) { votes = append(votes, vs...) })
		})
	if err != nil {
		return err
	}
	// Every candidate posts (or is served) no earlier than the sample
	// join finished, so the operator cannot settle before it either.
	j.clock = done
	j.pairClock = max(j.pairClock, done)
	j.emit.advance(done)
	// A fresh combiner: stateful ones (QualityAdjust, GoldScreen) must
	// not carry the sample's state into the join proper.
	comb, err := x.eng.Combiner()
	if err != nil {
		return err
	}
	decisions, err := comb.Combine(votes)
	if err != nil {
		return err
	}
	var ref []join.Pair
	for _, p := range sample {
		if d, ok := decisions[p.Key()]; ok && d.Value == "yes" {
			ref = append(ref, p)
		}
	}
	kept, verdicts, err := join.ChooseFeatures(left, right, le, re, j.node.LeftFeatures, ref, cfg)
	if err == nil {
		err = right.Err()
	}
	if err != nil {
		return err
	}
	for _, v := range verdicts {
		if !v.Kept {
			x.stats.add(OpStat{Label: fmt.Sprintf("feature %q discarded: %s", v.Feature, v.Reason)})
		}
	}
	j.fields = j.fields[:0]
	for _, f := range kept {
		j.fields = append(j.fields, f.Field)
	}
	return nil
}

// probeRows adapts the buffered probe tuples to join.Rows.
type probeRows []relation.Tuple

func (r probeRows) Len() int                 { return len(r) }
func (r probeRows) Row(i int) relation.Tuple { return r[i] }

// layoutGrids lays candidate pairs out as r×s SmartBatch grids (the
// layout needs the full candidate set: every survivor of a SmartBatch
// join, or the tail buffered since a mid-run Naive→Smart switch, in
// scan order), decides whole grids from the answer store where it can,
// counts each posted cell as pending on its slot, and queues the rest
// on the pair poster; collectChunk's per-cell expansion resolves them.
// clock is when the candidates became known.
func (j *crowdJoinOp) layoutGrids(seq join.PairSeq, r, s int, clock float64) error {
	hits, err := join.SmartGridHITs(j.builder, seq, func(p join.Pair) { j.noteSlot(p) }, j.node.Task.Name, r, s)
	if err != nil {
		return err
	}
	// A grid question's content key covers its full item layout, so a
	// stored entry decides every cell (a candidate's cell lives in exactly
	// one grid HIT). Grids are built one question per HIT, so serving is
	// all-or-nothing per HIT.
	post := hits[:0]
	for _, h := range hits {
		q := &h.Questions[0]
		served, err := j.post.Serve(q, clock, j.applyStored)
		if err != nil {
			return err
		}
		if served {
			continue
		}
		for _, lt := range q.LeftItems {
			for _, rt := range q.RightItems {
				if idx, ok := j.slotOf[join.Pair{Left: lt, Right: rt}.Key()]; ok {
					j.slots[idx].pending++
				}
			}
		}
		post = append(post, h)
	}
	j.post.Enqueue(post...)
	return nil
}

// forEachPairVotes expands one join question's worker answers into
// per-pair yes/no votes: a pair question votes on its own pair (keyed
// by its ID), a grid question on every cell, selected cells voting yes.
// Each call gets a fresh votes slice.
func forEachPairVotes(q *hit.Question, as []hit.CachedAnswer, visit func(key string, votes []combine.Vote)) {
	if q.Kind != hit.JoinGridQ {
		visit(q.ID, boolVotes(q.ID, as))
		return
	}
	for li, lt := range q.LeftItems {
		for ri, rt := range q.RightItems {
			key := join.Pair{Left: lt, Right: rt}.Key()
			votes := make([]combine.Vote, 0, len(as))
			for _, ca := range as {
				sel := false
				for _, pr := range ca.Answer.Pairs {
					if pr == [2]int{li, ri} {
						sel = true
						break
					}
				}
				votes = append(votes, combine.Vote{Question: key, Worker: ca.WorkerID, Value: combine.BoolVote(sel)})
			}
			visit(key, votes)
		}
	}
}

// applyStored decides the pairs of one question served from the answer
// store — its own pair, or every cell of a grid — from the stored
// worker answers, at clock.
func (j *crowdJoinOp) applyStored(q *hit.Question, as []hit.CachedAnswer, clock float64) error {
	var err error
	forEachPairVotes(q, as, func(key string, votes []combine.Vote) {
		idx, ok := j.slotOf[key]
		if !ok || err != nil {
			return
		}
		s := j.slots[idx]
		s.served = true
		if clock > s.ready {
			s.ready = clock
		}
		if !j.perQ {
			j.eosVotes = append(j.eosVotes, votes...)
			return
		}
		s.votes = append(s.votes, votes...)
		if !s.decided {
			err = j.decideSlot(s, key)
			s.decided = true
		}
	})
	return err
}

// noteSlot registers a candidate pair, deduplicating by content key
// (first appearance wins, fixing emission order). It returns the pair's
// key so callers minting a question reuse the string instead of
// re-deriving it.
func (j *crowdJoinOp) noteSlot(p join.Pair) (*jslot, string) {
	key := p.Key()
	if idx, ok := j.slotOf[key]; ok {
		return j.slots[idx], key
	}
	s := &jslot{pair: p}
	j.slotOf[key] = len(j.slots)
	j.slots = append(j.slots, s)
	return s, key
}

// mintPair queues one candidate pair's question — unless the pair was
// already resolved from the answer store, or the poster serves it now
// (which decides the slot without posting).
func (j *crowdJoinOp) mintPair(p join.Pair, key string, s *jslot, batch int, clock float64) error {
	if s.served {
		return nil
	}
	q := hit.Question{
		ID:   key,
		Kind: hit.JoinPairQ,
		Task: j.node.Task.Name,
		Left: p.Left, Right: p.Right,
	}
	served, err := j.post.Serve(&q, clock, j.applyStored)
	if err != nil || served {
		return err
	}
	s.pending++
	j.qbuf = append(j.qbuf, q)
	return j.flushHIT(batch, false)
}

// pairBatch is the questions-per-HIT of the chosen pair interface.
func (j *crowdJoinOp) pairBatch() int {
	if j.phys.Algorithm == join.Naive && j.phys.BatchSize > 1 {
		return j.phys.BatchSize
	}
	return 1
}

// step advances the join by one action: post every poster with a
// ready chunk, buffer a probe batch ahead of pair generation, run §3.2
// feature selection once both sides are extracted, turn ready probe
// tuples into pair questions, or collect the globally oldest in-flight
// chunk.
func (j *crowdJoinOp) step(ctx context.Context) error {
	if err := j.rightRel.Err(); err != nil {
		return err
	}
	batch := j.pairBatch()
	if j.xl != nil {
		if err := j.feedBuild(); err != nil {
			return err
		}
		j.xr.post.PostReady(j.xr.eos, j.clock)
		j.xl.post.PostReady(j.xl.eos, j.clock)
	}
	j.post.PostReady(j.pairsDone, j.pairClock)
	if j.pullsAhead() {
		return j.pullLeft(ctx)
	}
	if j.selecting && j.xl.done() && j.xr.done() {
		return j.selectFeatures(ctx)
	}
	// A pair can only be pruned (or kept) once both sides' values are
	// known, so the build side's extraction must be fully resolved first.
	if !j.pairsDone && !j.closed && !j.selecting && j.xr.done() && !j.post.Backlogged() {
		progress, err := j.genPairs(ctx, batch)
		if err == nil {
			err = j.rightRel.Err()
		}
		if err != nil || progress {
			return err
		}
	}
	if collected, err := j.collectOldest(ctx); collected || err != nil {
		return err
	}
	// Stateful extraction combiners resolve once their stream is fully
	// collected; pair generation then resumes above.
	for _, e := range []*extStream{j.xl, j.xr} {
		if e != nil && e.eos && e.post.Idle() && !e.final {
			return e.finalizeEOS()
		}
	}
	if (j.pairsDone || j.closed) && !j.final {
		if err := j.finalize(); err != nil {
			return err
		}
	}
	j.done = true
	return nil
}

// genPairs turns ready probe tuples into pair questions — the one
// enumeration loop of the join — bounded to one chunk's worth of
// build-side visits per call. With features a probe tuple is ready once
// its values resolved; without, once its batch arrived, and the next
// batch is pulled only after every buffered tuple is paired. It reports
// whether it made progress (generated questions or finished the pair
// stream).
func (j *crowdJoinOp) genPairs(ctx context.Context, batch int) (bool, error) {
	want := j.x.eng.Options.StreamChunkHITs * batch
	visited := 0
	for visited < want {
		if j.xl == nil && j.genLeft >= len(j.leftRows) && !j.leftEOS {
			if err := j.pullLeft(ctx); err != nil {
				return false, err
			}
			continue
		}
		if j.genLeft >= len(j.leftRows) || (j.xl != nil && j.genLeft >= j.xl.resolved) {
			break
		}
		if j.genRight == 0 && j.xl != nil {
			// Consuming a new probe tuple: pairs derived from it cannot
			// post before its features (or the build side's) resolved.
			if r := j.xl.ready[j.genLeft]; r > j.pairClock {
				j.pairClock = r
			}
			if j.xr.lastDone > j.pairClock {
				j.pairClock = j.xr.lastDone
			}
		}
		lt := j.leftRows[j.genLeft]
		var lv map[string]string
		if j.xl != nil {
			lv = j.xl.values[j.genLeft]
		}
		for j.genRight < j.rightRel.Len() && visited < want {
			ri := j.genRight
			rt := j.rightRel.Row(ri)
			j.genRight++
			visited++
			pass := len(j.fields) == 0 || featureMatch(lv, j.xr.values[ri], j.fields)
			if j.prefilter {
				j.scanPairs++
				if pass {
					j.passPairs++
				}
			}
			if !pass {
				continue
			}
			if j.useSmart {
				// Survivors wait for the grid layout at end of stream;
				// emission order still follows scan order because their
				// slots register during layout, after every minted one.
				j.tail = append(j.tail, [2]int{j.genLeft, ri})
				continue
			}
			p := join.Pair{LeftIndex: j.genLeft, RightIndex: ri, Left: lt, Right: rt}
			s, key := j.noteSlot(p)
			if err := j.mintPair(p, key, s, batch, j.pairClock); err != nil {
				return false, err
			}
		}
		if j.genRight >= j.rightRel.Len() {
			j.genRight = 0
			if !j.useSmart {
				j.leftRows[j.genLeft] = relation.Tuple{} // release the buffered tuple
			}
			if j.xl != nil {
				j.xl.values[j.genLeft] = nil
			}
			j.genLeft++
			if err := j.maybeReplan(); err != nil {
				return false, err
			}
		}
	}
	if j.leftEOS && j.xl.done() && j.genLeft >= len(j.leftRows) && !j.pairsDone {
		j.pairsDone = true
		if j.useSmart && len(j.tail) > 0 {
			err := j.layoutGrids(j.tailSeq(), j.phys.GridRows, j.phys.GridCols, j.pairClock)
			j.tail = nil
			if err != nil {
				return false, err
			}
		}
		if err := j.flushHIT(batch, true); err != nil {
			return false, err
		}
		return true, nil
	}
	// Advancing the scan cursor is progress even when every visited
	// pair was pruned — otherwise a fully-filtered visit window would
	// end the operator with candidates still unscanned.
	return visited > 0, nil
}

// tailSeq streams the buffered survivors in scan order.
func (j *crowdJoinOp) tailSeq() join.PairSeq {
	return func(yield func(join.Pair) bool) {
		for _, c := range j.tail {
			p := join.Pair{LeftIndex: c[0], RightIndex: c[1], Left: j.leftRows[c[0]], Right: j.rightRel.Row(c[1])}
			if !yield(p) {
				return
			}
		}
	}
}

// maybeReplan makes the one mid-run join re-optimization decision, at
// the moment the first Options.Replan.ProbeTuples probe rows have been
// fully scanned against the build side. The observed POSSIBLY pass
// fraction re-costs the chosen per-pair interface against SmartBatch
// grids for the remaining pairs; when grids are cheaper per probe row
// and their estimated quality clears Replan.MinQuality, the remaining
// survivors are laid out as grids instead of per-pair HITs. The
// decision reads only extraction-derived counts at a fixed probe-row
// boundary — never collection timing — so it is identical at any
// ExecBatch/StreamChunkHITs setting; durable runs checkpoint it so a
// resume verifies the same switch.
func (j *crowdJoinOp) maybeReplan() error {
	repl := j.x.eng.Options.Replan
	if !j.prefilter || j.replanned || !repl.Enabled || j.genLeft < repl.ProbeTuples {
		return nil
	}
	j.replanned = true
	nr := j.rightRel.Len()
	if j.scanPairs == 0 || nr == 0 {
		return nil
	}
	f := float64(j.passPairs) / float64(j.scanPairs)
	// A Simple or NaiveBatch annotation carries the grid shape a switch
	// lays the remaining pairs out with.
	r, s := j.phys.GridRows, j.phys.GridCols
	b := float64(j.pairBatch())
	naivePerRow := f * float64(nr) / b
	smartPerRow := float64(cost.CeilDiv(nr, s)) * (1 - math.Pow(1-f, float64(r*s))) / float64(r)
	// Grid-quality stand-in: assume one true match per probe row spread
	// uniformly over the build side — sel·r·s expected matches per grid
	// with sel = 1/nr (deterministic; true matches are unknown mid-run).
	quality := cost.GridQuality(r, s, float64(r*s)/float64(nr))
	if smartPerRow < naivePerRow && quality >= repl.MinQuality {
		j.useSmart = true
	}
	dig := fnvFold(0, uint64(repl.ProbeTuples))
	dig = fnvFold(dig, uint64(j.scanPairs))
	dig = fnvFold(dig, uint64(j.passPairs))
	var sw uint64
	if j.useSmart {
		sw = 1
	}
	dig = fnvFold(dig, sw)
	dig = fnvFold(dig, uint64(r))
	dig = fnvFold(dig, uint64(s))
	return j.x.checkpoint(ckptReplan, j.path, dig, j.pairClock)
}

func (j *crowdJoinOp) flushHIT(batch int, force bool) error {
	return j.post.FlushQuestions(j.builder, &j.qbuf, batch, force)
}

// collectChunk collects the pair poster's oldest chunk: each resolved
// question occurrence folds its votes into its pair's slot (a grid
// question into every cell's slot) and counts one pending occurrence
// off; a PerQuestion combiner decides a slot once none are pending,
// a stateful one buffers every vote for finalize.
func (j *crowdJoinOp) collectChunk(ctx context.Context) error {
	_, err := j.post.CollectOne(ctx, func(q *hit.Question, as []hit.CachedAnswer, done float64) error {
		var err error
		forEachPairVotes(q, as, func(key string, votes []combine.Vote) {
			if !j.perQ {
				j.eosVotes = append(j.eosVotes, votes...)
			}
			idx, ok := j.slotOf[key]
			if !ok || err != nil {
				return
			}
			s := j.slots[idx]
			s.pending--
			if done > s.ready {
				s.ready = done
			}
			if !j.perQ {
				return
			}
			// EOS-mode combiners read only eosVotes; buffering per slot
			// too would double vote memory for nothing.
			if s.votes == nil {
				s.votes = votes
			} else {
				s.votes = append(s.votes, votes...)
			}
			if s.pending == 0 && !s.decided {
				err = j.decideSlot(s, key)
				s.decided = true
			}
		})
		return err
	})
	return err
}

// decideSlot resolves one pair from its own votes (PerQuestion path).
// Combine errors fail the query, matching the materializing executor.
func (j *crowdJoinOp) decideSlot(s *jslot, key string) error {
	if len(s.votes) == 0 {
		return nil
	}
	decisions, err := j.comb.Combine(s.votes)
	if err != nil {
		return err
	}
	if d, ok := decisions[key]; ok && d.Value == "yes" {
		s.accepted = true
	}
	s.votes = nil
	return nil
}

// finalize resolves every pair with one combine over all votes
// (stateful-combiner path) and closes out undecided slots. Combine
// errors fail the query, matching the materializing executor.
func (j *crowdJoinOp) finalize() error {
	j.final = true
	if !j.perQ {
		decisions, err := j.comb.Combine(j.eosVotes)
		if err != nil {
			return err
		}
		doneAt := j.clock
		if j.acct.lastDone > doneAt {
			doneAt = j.acct.lastDone
		}
		for _, s := range j.slots {
			if d, ok := decisions[s.pair.Key()]; ok && d.Value == "yes" {
				s.accepted = true
			}
			s.decided = true
			if doneAt > s.ready {
				s.ready = doneAt
			}
		}
		j.observeRun()
		return nil
	}
	for _, s := range j.slots {
		if s.pending == 0 {
			s.decided = true
		}
	}
	j.observeRun()
	return nil
}

// observeRun feeds the join's measured statistics to the run's Stats
// and the engine's history store: the probe side's POSSIBLY pass
// fraction (streaming prefilter path), the match selectivity over
// decided candidates, and the operator's crowd latency.
func (j *crowdJoinOp) observeRun() {
	if j.scanPairs > 0 {
		j.x.observe(j.label, j.node.Task.Name, obstats.KindPassFraction,
			float64(j.passPairs)/float64(j.scanPairs), float64(j.scanPairs))
	}
	decided, accepted := 0, 0
	for _, s := range j.slots {
		if s.decided {
			decided++
			if s.accepted {
				accepted++
			}
		}
	}
	if decided > 0 {
		j.x.observe(j.label, j.node.Task.Name, obstats.KindSelectivity,
			float64(accepted)/float64(decided), float64(decided))
	}
	if span := j.acct.span(); span > 0 && j.acct.hits > 0 {
		j.x.observe(j.label, j.node.Task.Name, obstats.KindLatencyHours, span, float64(j.acct.hits))
	}
}
