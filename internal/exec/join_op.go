// Streaming crowd join. The build (right) side is always materialized
// — a block nested loop needs one full side; under
// Options.BreakerMemTuples it spills to disk partitions, bounding
// memory at O(cap) tuples. With a per-pair interface (Simple/
// NaiveBatch) the probe (left) side streams — including when POSSIBLY
// features are present: the probe side's extraction HITs are minted
// per arriving batch and posted through the chunked poster, the build
// side's extraction posts through the same poster, and pair
// generation consumes probe tuples as their feature votes resolve. A
// filtered join therefore pipelines end to end, and extraction
// inherits the refusal/expiry retry policies. SmartBatch grid layout
// and automatic feature selection still need a global view of the
// candidates, so those paths materialize the probe side too (memory
// O(|R|+|S|)) and then extract through the same streams; posting and
// collection stay chunked and incremental either way, which is what
// lets LIMIT stop the spend and cancellation stop the wait.
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

	started  bool
	rightRel *buildTable
	// streaming-left state (nil iter means left streams)
	iter      join.PairIter
	leftBuf   []relation.Tuple
	leftEOS   bool
	rightIdx  int
	pairsDone bool

	// streaming feature extraction (nil when the join has no features
	// or must materialize the probe side): xl extracts the probe side
	// per arriving batch, xr the build side — fed incrementally inside
	// the step loop so its queued questions stay bounded even when the
	// build side spilled to disk; pair generation consumes xl's
	// resolved frontier.
	xl, xr    *extStream
	xrFed     int              // build rows handed to xr so far
	leftRows  []relation.Tuple // probe tuples awaiting pair generation
	genLeft   int              // next probe ordinal to pair
	genRight  int              // next build row for genLeft
	pairClock float64          // max resolve time of consumed tuples

	// mid-run re-plan (Options.Replan, streaming prefilter path only):
	// pair counts over the scanned probe prefix, the one-shot switch
	// decision, and — after a Naive→Smart switch — the surviving tail
	// pairs buffered for grid layout at end of stream.
	scanPairs int
	passPairs int
	replanned bool
	useSmart  bool
	tailPairs []join.Pair

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
// materializes (spilling past Options.BreakerMemTuples when set);
// grid layout and automatic feature selection also materialize the
// probe side; a stateful combiner additionally buffers all pair votes.
func (j *crowdJoinOp) Breakers() []BreakerInfo {
	cap := j.x.eng.Options.BreakerMemTuples
	var infos []BreakerInfo
	if j.materializesLeft() {
		infos = append(infos, BreakerInfo{
			Kind: BreakerJoinCandidates,
			Note: "materializes both inputs (grid layout/feature selection need global candidates)",
		})
		if lf, _ := j.features(); len(lf) > 0 {
			infos = append(infos, BreakerInfo{
				Kind: BreakerExtraction,
				Note: "features of the drained inputs are extracted, chunk by chunk, before pair layout",
			})
		}
	} else {
		infos = append(infos, BreakerInfo{
			Kind:      BreakerJoinBuild,
			MemTuples: cap,
			Spills:    cap > 0,
			Note:      "materializes build side only; probe side streams",
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

// features returns the POSSIBLY features the physical plan actually
// applies — nil when the optimizer decided pre-filtering does not pay.
func (j *crowdJoinOp) features() ([]join.Feature, []join.Feature) {
	if !j.phys.UseFeatures {
		return nil, nil
	}
	return j.node.LeftFeatures, j.node.RightFeatures
}

// materializesLeft reports whether the probe side must be drained
// before pair layout: SmartBatch grids and §3.2 automatic feature
// selection both need the global candidate set. Plain feature
// filtering no longer does — the probe side's extraction streams.
func (j *crowdJoinOp) materializesLeft() bool {
	lf, _ := j.features()
	return j.phys.Algorithm == join.Smart || (len(lf) > 0 && j.x.eng.Options.AutoSelectFeatures)
}

// streamsExtraction reports whether the probe side's features are
// extracted on the fly through the chunked poster.
func (j *crowdJoinOp) streamsExtraction() bool {
	lf, _ := j.features()
	return len(lf) > 0 && !j.materializesLeft()
}

// initExtraction sets up both sides' extraction streams at build time
// so the extract-left/extract-right Stats slots appear in
// deterministic plan order. The streaming path feeds them per arriving
// batch; the materializing path ingests its drained inputs whole.
func (j *crowdJoinOp) initExtraction() error {
	lf, rf := j.features()
	if len(lf) == 0 {
		return nil
	}
	var err error
	j.xl, err = j.x.newExtStream("extract-left",
		j.x.groupID("extract-left/"+j.node.Task.Name, j.path+".xl"), lf, j.phys.Assignments, &j.seq)
	if err != nil {
		return err
	}
	j.xr, err = j.x.newExtStream("extract-right",
		j.x.groupID("extract-right/"+j.node.Task.Name, j.path+".xr"), rf, j.phys.Assignments, &j.seq)
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

// start materializes the build side (and, when the candidate layout
// needs it, the probe side, its extractions, and the §3.2 sample join)
// before any pair HIT is posted. Both subtrees are exchange-wrapped, so
// they execute concurrently — the paper's §2.5 pipelined left-deep
// execution. On the streaming-extraction path the build side's
// extraction questions are minted inside step() and posted and
// collected chunk by chunk, interleaved with the probe side's.
func (j *crowdJoinOp) start(ctx context.Context) error {
	j.started = true
	opts := &j.x.eng.Options
	if !j.materializesLeft() {
		// Prime the probe-side exchange so its subtree posts crowd work
		// while the build side drains here.
		if c, ok := j.left.(*concurrentOp); ok {
			c.start(ctx)
		}
		right, rReady, err := drainBuildTable(ctx, j.right, opts.BreakerMemTuples)
		if err != nil {
			return err
		}
		// Durable runs checkpoint the materialized build side (spilled
		// partitions keep a running digest, so this is free of re-reads).
		if err := j.x.checkpoint(ckptJoinBuild, j.path+".b", right.digest(), rReady); err != nil {
			return err
		}
		j.rightRel = right
		j.clock = rReady
		if j.xr != nil {
			// The build side's extraction questions are fed to xr
			// incrementally inside stepExtracting — minting them all here
			// would pin O(|S|) tuples in queued HITs, defeating the spill
			// the drain above may just have performed.
			j.pairClock = rReady
		}
		return nil
	}

	// Drain both sides concurrently.
	var left *relation.Relation
	var lReady float64
	var lerr error
	drained := make(chan struct{})
	go func() {
		left, lReady, lerr = drainRelation(ctx, j.left)
		close(drained)
	}()
	right, rReady, rerr := drainRelation(ctx, j.right)
	<-drained
	if lerr != nil {
		return lerr
	}
	if rerr != nil {
		return rerr
	}
	j.rightRel = memBuildTable(right)
	if err := j.x.checkpoint(ckptJoinBuild, j.path+".b", j.rightRel.digest(), rReady); err != nil {
		return err
	}
	j.clock = lReady
	if rReady > j.clock {
		j.clock = rReady
	}

	var le, re *join.Extraction
	features, _ := j.features()
	if len(features) > 0 {
		// An empty side leaves no candidates to sample and no votes to rate.
		autoSelect := opts.AutoSelectFeatures && left.Len() > 0 && right.Len() > 0
		if err := j.drainExtraction(ctx, left, right, autoSelect); err != nil {
			return err
		}
		le, re = j.xl.extraction(left), j.xr.extraction(right)
		if autoSelect {
			var err error
			if features, err = j.selectFeatures(ctx, left, right, le, re); err != nil {
				return err
			}
		}
	}
	names := make([]string, len(features))
	for i, f := range features {
		names[i] = f.Field
	}
	// Every candidate posts (or is served) no earlier than the phases
	// above finished, so the operator cannot settle before them either.
	j.emit.advance(j.clock)

	if j.phys.Algorithm == join.Smart {
		var seq join.PairSeq
		if len(names) > 0 {
			seq = join.FilteredSeq(left, right, le, re, names)
		} else {
			seq = join.CrossSeq(left, right)
		}
		j.pairsDone = true
		return j.layoutGrids(seq, j.phys.GridRows, j.phys.GridCols, j.clock)
	}
	j.iter = join.NewPairIter(left, right, le, re, names)
	return nil
}

// drainExtraction extracts both drained inputs' features through their
// streams: every row is ingested up front, chunks post at the inputs'
// ready time within the lookahead, and the globally oldest in-flight
// chunk of either side is collected first, so both sides overlap on the
// marketplace. With kappa the streams also tally κ matrices for §3.2
// feature selection. It returns once every subject resolved, advancing
// the operator clock past the last extraction chunk.
func (j *crowdJoinOp) drainExtraction(ctx context.Context, left, right *relation.Relation, kappa bool) error {
	sides := [2]*extStream{j.xl, j.xr}
	for i, rel := range [2]*relation.Relation{left, right} {
		if kappa {
			if err := sides[i].tallyKappa(rel.Len()); err != nil {
				return err
			}
		}
		for r := 0; r < rel.Len(); r++ {
			if err := sides[i].ingest(rel.Row(r)); err != nil {
				return err
			}
		}
		if err := sides[i].finishInput(); err != nil {
			return err
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, e := range sides {
			e.post.PostReady(true, j.clock)
		}
		i := oldestInFlight(j.xl.post, j.xr.post)
		if i < 0 {
			break
		}
		if err := sides[i].collect(ctx); err != nil {
			return err
		}
	}
	for _, e := range sides {
		if err := e.finalizeEOS(); err != nil {
			return err
		}
		if e.lastDone > j.clock {
			j.clock = e.lastDone
		}
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

// selectFeatures implements §3.2's automatic feature pruning: a crowd
// join over a sample of the cross product, posted through the chunked
// poster with the join's own interface once extraction settled,
// supplies reference matches, and ChooseFeatures applies the paper's
// three discard rules (κ ambiguity, result loss, selectivity). It
// returns the kept features, advancing the operator clock past the
// sample join.
func (j *crowdJoinOp) selectFeatures(ctx context.Context, left, right *relation.Relation, le, re *join.Extraction) ([]join.Feature, error) {
	x, task := j.x, j.node.Task.Name
	cfg := x.eng.Options.FeatureSelection
	if cfg.SampleFrac == 0 {
		cfg.SampleFrac = 0.15
	}
	if cfg.Seed == 0 {
		cfg.Seed = x.eng.Options.Seed + 1
	}
	sample := join.SamplePairs(left, right, cfg.SampleFrac, rand.New(rand.NewSource(cfg.Seed)))
	gid := x.groupID("select-sample/"+task, j.path+".fs")
	var questions []hit.Question
	if j.phys.Algorithm == join.Smart {
		grids, err := join.SmartGridHITs(hit.NewBuilder(gid, j.phys.Assignments, 1), join.SliceSeq(sample),
			func(join.Pair) {}, task, j.phys.GridRows, j.phys.GridCols)
		if err != nil {
			return nil, err
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
	done, _, err := x.runQuestions(ctx, "feature-selection sample join", gid, questions, j.pairBatch(), j.phys.Assignments, j.clock,
		func(q *hit.Question, as []hit.CachedAnswer) {
			forEachPairVotes(q, as, func(_ string, vs []combine.Vote) { votes = append(votes, vs...) })
		})
	if err != nil {
		return nil, err
	}
	j.clock = done
	// A fresh combiner: stateful ones (QualityAdjust, GoldScreen) must
	// not carry the sample's state into the join proper.
	comb, err := x.eng.Combiner()
	if err != nil {
		return nil, err
	}
	decisions, err := comb.Combine(votes)
	if err != nil {
		return nil, err
	}
	var ref []join.Pair
	for _, p := range sample {
		if d, ok := decisions[p.Key()]; ok && d.Value == "yes" {
			ref = append(ref, p)
		}
	}
	kept, verdicts, err := join.ChooseFeatures(left, right, le, re, j.node.LeftFeatures, ref, cfg)
	if err != nil {
		return nil, err
	}
	for _, v := range verdicts {
		if !v.Kept {
			x.stats.add(OpStat{Label: fmt.Sprintf("feature %q discarded: %s", v.Feature, v.Reason)})
		}
	}
	return kept, nil
}

// layoutGrids lays candidate pairs out as r×s SmartBatch grids (the
// layout needs the full candidate set: a materialized join's whole
// cross product, or the tail buffered since a mid-run Naive→Smart
// switch), decides whole grids from the answer store where it can,
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

// nextPair produces the next candidate pair on the featureless
// streaming path, pulling left batches on demand.
func (j *crowdJoinOp) nextPair(ctx context.Context) (join.Pair, bool, error) {
	if j.iter != nil {
		p, ok := j.iter.Next()
		return p, ok, nil
	}
	for {
		if len(j.leftBuf) > 0 {
			if j.rightIdx < j.rightRel.Len() {
				p := join.Pair{Left: j.leftBuf[0], Right: j.rightRel.Row(j.rightIdx)}
				j.rightIdx++
				return p, true, nil
			}
			j.leftBuf = j.leftBuf[1:]
			j.rightIdx = 0
			continue
		}
		if j.leftEOS {
			return join.Pair{}, false, nil
		}
		in, err := j.left.Next(ctx)
		if err != nil {
			return join.Pair{}, false, err
		}
		if in == nil {
			j.leftEOS = true
			continue
		}
		if in.Ready > j.clock {
			j.clock = in.Ready
		}
		j.leftBuf = in.Rows()
		j.rightIdx = 0
	}
}

// pairBatch is the questions-per-HIT of the chosen pair interface.
func (j *crowdJoinOp) pairBatch() int {
	if j.phys.Algorithm == join.Naive && j.phys.BatchSize > 1 {
		return j.phys.BatchSize
	}
	return 1
}

// step: generate candidate questions until a chunk's worth of HITs is
// queued, post, collect, finalize — all count-driven. On the
// streaming-extraction path the step loop also schedules the two
// extraction posters; the globally oldest in-flight chunk (across all
// posters, by shared sequence number) is always collected first, so
// interleaving is deterministic.
func (j *crowdJoinOp) step(ctx context.Context) error {
	if j.rightRel != nil {
		if err := j.rightRel.Err(); err != nil {
			return err
		}
	}
	batch := j.pairBatch()
	if j.streamsExtraction() {
		return j.stepExtracting(ctx, batch)
	}
	j.post.PostReady(j.pairsDone, j.clock)
	if !j.pairsDone && !j.closed && !j.post.Backlogged() {
		// Fill one chunk's worth of HITs (bounded work per step).
		want := j.x.eng.Options.StreamChunkHITs * batch
		for n := 0; n < want; n++ {
			p, ok, err := j.nextPair(ctx)
			if err != nil {
				return err
			}
			if !ok {
				j.pairsDone = true
				return j.flushHIT(batch, true)
			}
			s, key := j.noteSlot(p)
			if err := j.mintPair(p, key, s, batch, j.clock); err != nil {
				return err
			}
		}
		return nil
	}
	if j.post.OldestSeq() >= 0 {
		return j.collectChunk(ctx)
	}
	if (j.pairsDone || j.closed) && !j.final {
		if err := j.finalize(); err != nil {
			return err
		}
	}
	j.done = true
	return nil
}

// stepExtracting advances the pipelined filtered join by one action:
// post every poster with a ready chunk, ingest a probe batch (minting
// its extraction questions), turn resolved probe tuples into pair
// questions, or collect the globally oldest in-flight chunk.
func (j *crowdJoinOp) stepExtracting(ctx context.Context, batch int) error {
	// Feed the build side's extraction a bounded slice of rows: enough
	// to keep its poster busy, never the whole (possibly spilled) side
	// at once.
	if j.xrFed < j.rightRel.Len() && !j.xr.post.Backlogged() {
		want := j.x.eng.Options.StreamChunkHITs * j.xr.batch
		for n := 0; n < want && j.xrFed < j.rightRel.Len(); n++ {
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
	if j.xrFed >= j.rightRel.Len() && !j.xr.eos {
		if err := j.xr.finishInput(); err != nil {
			return err
		}
	}
	// Post.
	j.xr.post.PostReady(j.xr.eos, j.clock)
	j.xl.post.PostReady(j.xl.eos, j.clock)
	j.post.PostReady(j.pairsDone, j.pairClock)
	// Ingest the probe side unless its extraction poster is backlogged
	// or extraction has run far enough ahead of pair generation. The
	// demand window keeps extraction busy without racing to the end of
	// the input — so a LIMIT that closes the pipeline leaves the
	// un-ingested tail's extraction HITs unposted (the streaming
	// equivalent of the pair-phase short-circuit). Stateful combiners
	// resolve only at end of stream, so they get no window: pair
	// generation cannot start until the whole input is extracted.
	opts := &j.x.eng.Options
	window := opts.StreamLookahead * opts.StreamChunkHITs * j.xl.batch
	if !j.xl.perQ {
		window = 0
	}
	ahead := len(j.leftRows) - j.genLeft
	if !j.leftEOS && !j.closed && !j.xl.post.Backlogged() && (window <= 0 || ahead < window) {
		in, err := j.left.Next(ctx)
		if err != nil {
			return err
		}
		if in == nil {
			j.leftEOS = true
			return j.xl.finishInput()
		}
		if in.Ready > j.clock {
			j.clock = in.Ready
		}
		for _, t := range in.Rows() {
			j.leftRows = append(j.leftRows, t)
			if err := j.xl.ingest(t); err != nil {
				return err
			}
		}
		return nil
	}
	// Generate pair questions from the resolved probe frontier. The
	// build side's extraction must be fully resolved first: a pair can
	// only be pruned (or kept) once both sides' values are known.
	if !j.pairsDone && !j.closed && j.xr.done() && !j.post.Backlogged() {
		progress, err := j.genPairs(batch)
		if err == nil {
			err = j.rightRel.Err()
		}
		if err != nil {
			return err
		}
		if progress {
			return nil
		}
	}
	// Collect the globally oldest in-flight chunk across the three
	// posters.
	switch oldestInFlight(j.xr.post, j.xl.post, j.post) {
	case 0:
		return j.xr.collect(ctx)
	case 1:
		return j.xl.collect(ctx)
	case 2:
		return j.collectChunk(ctx)
	}
	// Stateful extraction combiners resolve once their stream is fully
	// collected; pair generation then resumes above.
	if j.xl.eos && j.xl.post.Idle() && !j.xl.final {
		if err := j.xl.finalizeEOS(); err != nil {
			return err
		}
		return nil
	}
	if j.xr.eos && j.xr.post.Idle() && !j.xr.final {
		return j.xr.finalizeEOS()
	}
	if (j.pairsDone || j.closed) && !j.final {
		if err := j.finalize(); err != nil {
			return err
		}
	}
	j.done = true
	return nil
}

// genPairs turns resolved probe tuples into pair questions, bounded to
// one chunk's worth of build-side visits per call. It reports whether
// it made progress (generated questions or finished the pair stream).
func (j *crowdJoinOp) genPairs(batch int) (bool, error) {
	want := j.x.eng.Options.StreamChunkHITs * batch
	visited := 0
	for visited < want {
		if j.genLeft >= j.xl.resolved {
			break
		}
		if j.genRight == 0 {
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
		lv := j.xl.values[j.genLeft]
		for j.genRight < j.rightRel.Len() && visited < want {
			rt := j.rightRel.Row(j.genRight)
			rv := j.xr.values[j.genRight]
			ri := j.genRight
			j.genRight++
			visited++
			pass := featureMatch(lv, rv, j.xl.fields)
			j.scanPairs++
			if pass {
				j.passPairs++
			}
			if !pass {
				continue
			}
			p := join.Pair{LeftIndex: j.genLeft, RightIndex: ri, Left: lt, Right: rt}
			if j.useSmart {
				// Post-switch survivors wait for the grid layout at end of
				// stream; emission order still follows scan order because
				// their slots register during layout, after every minted one.
				j.tailPairs = append(j.tailPairs, p)
				continue
			}
			s, key := j.noteSlot(p)
			if err := j.mintPair(p, key, s, batch, j.pairClock); err != nil {
				return false, err
			}
		}
		if j.genRight >= j.rightRel.Len() {
			j.genRight = 0
			j.leftRows[j.genLeft] = relation.Tuple{} // release the buffered tuple
			j.xl.values[j.genLeft] = nil
			j.genLeft++
			if err := j.maybeReplan(); err != nil {
				return false, err
			}
		}
	}
	if j.leftEOS && j.xl.done() && j.genLeft >= len(j.leftRows) && !j.pairsDone {
		j.pairsDone = true
		if j.useSmart && len(j.tailPairs) > 0 {
			r, s := j.replanGrid()
			err := j.layoutGrids(join.SliceSeq(j.tailPairs), r, s, j.pairClock)
			j.tailPairs = nil
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

// replanGrid is the grid shape a mid-run switch lays tail pairs out
// with — the engine's configured SmartBatch shape (a Naive physical
// plan carries no grid dimensions of its own).
func (j *crowdJoinOp) replanGrid() (int, int) {
	r, s := j.x.eng.Options.GridRows, j.x.eng.Options.GridCols
	if r <= 0 {
		r = 3
	}
	if s <= 0 {
		s = 3
	}
	return r, s
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
	if j.replanned || !repl.Enabled || j.genLeft < repl.ProbeTuples {
		return nil
	}
	j.replanned = true
	nr := j.rightRel.Len()
	if j.scanPairs == 0 || nr == 0 {
		return nil
	}
	f := float64(j.passPairs) / float64(j.scanPairs)
	r, s := j.replanGrid()
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
