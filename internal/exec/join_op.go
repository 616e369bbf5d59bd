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
// O(|R|+|S|)); posting and collection stay chunked and incremental
// either way, which is what lets LIMIT stop the spend.
package exec

import (
	"context"
	"math"

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
				Note: "feature extraction runs as a blocking pass over the materialized inputs",
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

// initExtraction sets up the streaming extraction state at build time
// so the extract-left/extract-right Stats slots appear in
// deterministic plan order.
func (j *crowdJoinOp) initExtraction() error {
	if !j.streamsExtraction() {
		return nil
	}
	lf, rf := j.features()
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
// needs it, the probe side plus extractions) before any pair HIT is
// posted. Both subtrees are exchange-wrapped, so they execute
// concurrently — the paper's §2.5 pipelined left-deep execution. On
// the streaming-extraction path the build side's extraction questions
// are minted here but posted and collected chunk by chunk inside
// step(), interleaved with the probe side's extraction.
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
	type side struct {
		rel   *relation.Relation
		ready float64
		err   error
	}
	lch := make(chan side, 1)
	go func() {
		rel, ready, err := drainRelation(ctx, j.left)
		lch <- side{rel, ready, err}
	}()
	right, rReady, rerr := drainRelation(ctx, j.right)
	l := <-lch
	if l.err != nil {
		return l.err
	}
	if rerr != nil {
		return rerr
	}
	j.rightRel = memBuildTable(right)
	if err := j.x.checkpoint(ckptJoinBuild, j.path+".b", j.rightRel.digest(), rReady); err != nil {
		return err
	}
	j.clock = l.ready
	if rReady > j.clock {
		j.clock = rReady
	}

	var le, re *join.Extraction
	features, rightFeatures := j.features()
	var names []string
	if len(features) > 0 {
		// Extraction and the feature-selection sample join post via
		// blocking market calls; honor cancellation at the phase
		// boundary at least.
		if err := ctx.Err(); err != nil {
			return err
		}
		lcomb, err := j.x.eng.Combiner()
		if err != nil {
			return err
		}
		rcomb, err := j.x.eng.Combiner()
		if err != nil {
			return err
		}
		extOpts := join.ExtractOptions{
			Combined:    opts.ExtractCombined,
			BatchSize:   opts.ExtractBatch,
			Assignments: j.phys.Assignments,
		}
		lo := extOpts
		lo.Combiner = lcomb
		lo.GroupID = j.x.groupID("extract-left/"+j.node.Task.Name, j.path+".xl")
		ro := extOpts
		ro.Combiner = rcomb
		ro.GroupID = j.x.groupID("extract-right/"+j.node.Task.Name, j.path+".xr")
		var xerr error
		le, re, xerr = join.ExtractBoth(l.rel, right, features, rightFeatures, lo, ro, j.x.eng.Market)
		// Account whichever sides completed even when the other failed —
		// those HITs were spent regardless.
		if le != nil {
			j.x.account("extract-left", j.phys.Assignments, le.HITCount, le.AssignmentCount, 0)
		}
		if re != nil {
			j.x.account("extract-right", j.phys.Assignments, re.HITCount, re.AssignmentCount, 0)
		}
		if xerr != nil {
			return xerr
		}
		if opts.AutoSelectFeatures {
			kept, err := j.x.selectFeatures(j.node, l.rel, right, le, re, j.joinOptions(), j.path)
			if err != nil {
				return err
			}
			features = kept
		}
		names = make([]string, len(features))
		for i, f := range features {
			names[i] = f.Field
		}
	}

	if j.phys.Algorithm == join.Smart {
		return j.layoutGrids(l.rel, right, le, re, names)
	}
	j.iter = join.NewPairIter(l.rel, right, le, re, names)
	return nil
}

// joinOptions mirrors the materializing executor's join.Options for
// the feature-selection sample join.
func (j *crowdJoinOp) joinOptions() join.Options {
	comb, _ := j.x.eng.Combiner()
	return join.Options{
		Algorithm:   j.phys.Algorithm,
		BatchSize:   j.phys.BatchSize,
		GridRows:    j.phys.GridRows,
		GridCols:    j.phys.GridCols,
		Assignments: j.phys.Assignments,
		Combiner:    comb,
		GroupID:     j.x.groupID("join/"+j.node.Task.Name, j.path),
	}
}

// layoutGrids builds every SmartBatch grid HIT up front (the layout
// needs the full candidate set) and queues them for chunked posting.
func (j *crowdJoinOp) layoutGrids(left, right *relation.Relation, le, re *join.Extraction, names []string) error {
	var seq join.PairSeq
	if len(names) > 0 {
		seq = join.FilteredSeq(left, right, le, re, names)
	} else {
		seq = join.CrossSeq(left, right)
	}
	hits, err := join.SmartGridHITs(j.builder, seq, func(p join.Pair) { j.noteSlot(p) },
		j.node.Task.Name, j.phys.GridRows, j.phys.GridCols)
	if err != nil {
		return err
	}
	// Serve whole grid HITs from the answer store where possible: a grid
	// question's content key covers its full item layout, so a stored
	// entry decides every cell (a candidate's cell lives in exactly one
	// grid HIT). Grids are built one question per HIT, so serving is
	// all-or-nothing per HIT; multi-question HITs always post.
	var post []*hit.HIT
	for _, h := range hits {
		if len(h.Questions) == 1 {
			as, ok, err := j.x.answersLookup(&h.Questions[0], j.clock)
			if err != nil {
				return err
			}
			if ok {
				if err := j.applyGridAnswers(&h.Questions[0], as, j.clock); err != nil {
					return err
				}
				continue
			}
		}
		post = append(post, h)
	}
	for _, h := range post {
		for qi := range h.Questions {
			q := &h.Questions[qi]
			for _, lt := range q.LeftItems {
				for _, rt := range q.RightItems {
					key := join.Pair{Left: lt, Right: rt}.Key()
					if idx, ok := j.slotOf[key]; ok {
						j.slots[idx].pending++
					}
				}
			}
		}
	}
	j.post.Enqueue(post...)
	j.pairsDone = true
	return nil
}

// applyGridAnswers decides every cell of one store-served grid question
// from its stored worker answers — the same per-cell vote expansion
// join.CollectVotes performs for freshly collected grids.
func (j *crowdJoinOp) applyGridAnswers(q *hit.Question, as []hit.CachedAnswer, clock float64) error {
	for li, lt := range q.LeftItems {
		for ri, rt := range q.RightItems {
			key := join.Pair{Left: lt, Right: rt}.Key()
			idx, ok := j.slotOf[key]
			if !ok {
				continue
			}
			s := j.slots[idx]
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
			s.served = true
			if clock > s.ready {
				s.ready = clock
			}
			if j.perQ {
				s.votes = append(s.votes, votes...)
				if !s.decided {
					if err := j.decideSlot(s, key); err != nil {
						return err
					}
					s.decided = true
				}
			} else {
				j.eosVotes = append(j.eosVotes, votes...)
			}
		}
	}
	return nil
}

// noteSlot registers a candidate pair, deduplicating by content key
// (first appearance wins, fixing emission order). It returns the pair's
// key so callers minting a question reuse the string instead of
// re-deriving it; the last result reports whether this was the pair's
// first appearance.
func (j *crowdJoinOp) noteSlot(p join.Pair) (*jslot, string, bool) {
	key := p.Key()
	if idx, ok := j.slotOf[key]; ok {
		return j.slots[idx], key, false
	}
	s := &jslot{pair: p}
	j.slotOf[key] = len(j.slots)
	j.slots = append(j.slots, s)
	return s, key, true
}

// mintPair queues one candidate pair's question — unless the pair was
// already resolved from the answer store (first appearance consults
// the store; a servable entry decides the slot without posting).
func (j *crowdJoinOp) mintPair(p join.Pair, key string, s *jslot, isNew bool, batch int, clock float64) error {
	if s.served {
		return nil
	}
	q := hit.Question{
		ID:   key,
		Kind: hit.JoinPairQ,
		Task: j.node.Task.Name,
		Left: p.Left, Right: p.Right,
	}
	if isNew {
		as, ok, err := j.x.answersLookup(&q, clock)
		if err != nil {
			return err
		}
		if ok {
			votes := make([]combine.Vote, 0, len(as))
			for _, ca := range as {
				votes = append(votes, combine.Vote{Question: q.ID, Worker: ca.WorkerID, Value: combine.BoolVote(ca.Answer.Bool)})
			}
			s.served = true
			if clock > s.ready {
				s.ready = clock
			}
			if j.perQ {
				s.votes = votes
				if err := j.decideSlot(s, q.ID); err != nil {
					return err
				}
				s.decided = true
			} else {
				j.eosVotes = append(j.eosVotes, votes...)
			}
			return nil
		}
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
	for j.post.CanPost() && j.post.HasChunk(j.pairsDone) {
		j.post.PostOne(j.clock)
	}
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
			s, key, isNew := j.noteSlot(p)
			if err := j.mintPair(p, key, s, isNew, batch, j.clock); err != nil {
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
	for j.xr.post.CanPost() && j.xr.post.HasChunk(j.xr.eos) {
		j.xr.post.PostOne(j.clock)
	}
	for j.xl.post.CanPost() && j.xl.post.HasChunk(j.xl.eos) {
		j.xl.post.PostOne(j.clock)
	}
	for j.post.CanPost() && j.post.HasChunk(j.pairsDone) {
		j.post.PostOne(j.pairClock)
	}
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
	// posters (shared sequence numbers fix the order).
	oldest := -1
	var collect func(context.Context) error
	consider := func(seq int, fn func(context.Context) error) {
		if seq >= 0 && (oldest < 0 || seq < oldest) {
			oldest, collect = seq, fn
		}
	}
	consider(j.xr.post.OldestSeq(), func(ctx context.Context) error {
		_, err := j.xr.post.CollectOne(ctx, j.xr.resolveCollected)
		return err
	})
	consider(j.xl.post.OldestSeq(), func(ctx context.Context) error {
		_, err := j.xl.post.CollectOne(ctx, j.xl.resolveCollected)
		return err
	})
	consider(j.post.OldestSeq(), j.collectChunk)
	if collect != nil {
		return collect(ctx)
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
			s, key, isNew := j.noteSlot(p)
			if err := j.mintPair(p, key, s, isNew, batch, j.pairClock); err != nil {
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
		if err := j.layoutTailGrids(); err != nil {
			return false, err
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

// layoutTailGrids lays the pairs buffered since a mid-run Naive→Smart
// switch out as SmartBatch grids (the layout needs the full tail) and
// queues them on the pair poster — mirroring layoutGrids' store-serve
// and per-cell pending accounting. collectChunk's per-cell grid
// expansion then resolves them like any up-front grid.
func (j *crowdJoinOp) layoutTailGrids() error {
	if !j.useSmart || len(j.tailPairs) == 0 {
		return nil
	}
	r, s := j.replanGrid()
	hits, err := join.SmartGridHITs(j.builder, join.SliceSeq(j.tailPairs), func(p join.Pair) { j.noteSlot(p) },
		j.node.Task.Name, r, s)
	if err != nil {
		return err
	}
	j.tailPairs = nil
	var post []*hit.HIT
	for _, h := range hits {
		if len(h.Questions) == 1 {
			as, ok, err := j.x.answersLookup(&h.Questions[0], j.pairClock)
			if err != nil {
				return err
			}
			if ok {
				if err := j.applyGridAnswers(&h.Questions[0], as, j.pairClock); err != nil {
					return err
				}
				continue
			}
		}
		post = append(post, h)
	}
	for _, h := range post {
		for qi := range h.Questions {
			q := &h.Questions[qi]
			for _, lt := range q.LeftItems {
				for _, rt := range q.RightItems {
					key := join.Pair{Left: lt, Right: rt}.Key()
					if idx, ok := j.slotOf[key]; ok {
						j.slots[idx].pending++
					}
				}
			}
		}
	}
	j.post.Enqueue(post...)
	return nil
}

func (j *crowdJoinOp) flushHIT(batch int, force bool) error {
	return j.post.FlushQuestions(j.builder, &j.qbuf, batch, force)
}

func (j *crowdJoinOp) collectChunk(ctx context.Context) error {
	c, res, err := j.post.Collect(ctx)
	if err != nil {
		return err
	}
	done := c.PostedAt + res.MakespanHours
	retrying, exhausted, err := j.post.RetryRefused(c, res.Incomplete, done)
	if err != nil {
		return err
	}
	xretrying, xincomplete, err := j.post.RetryExpired(c, res, done)
	if err != nil {
		return err
	}
	retrying = poster.MergeRetrying(retrying, xretrying)
	exhausted = append(exhausted, xincomplete...)
	// Feed resolved questions to the shared answer store (skipping those
	// still pending a refusal/expiry retry — their final vote set
	// arrives with a later chunk). Duplicate questions with one ID
	// aggregate their votes, matching what the slots accumulate.
	if j.x.eng.Answers != nil {
		byQ := map[string][]hit.CachedAnswer{}
		hit.ForEachAnswer(c.HITs, res.Assignments, func(q *hit.Question, worker string, ans hit.Answer) {
			byQ[q.ID] = append(byQ[q.ID], hit.CachedAnswer{WorkerID: worker, Answer: ans})
		})
		stored := map[string]bool{}
		for _, h := range c.HITs {
			for qi := range h.Questions {
				q := &h.Questions[qi]
				if retrying[q.ID] > 0 || stored[q.ID] {
					continue
				}
				stored[q.ID] = true
				j.x.answersStore(q, byQ[q.ID])
			}
		}
	}
	votes := join.CollectVotes(c.HITs, res.Assignments)
	if j.perQ {
		// EOS-mode combiners read only eosVotes; buffering per slot too
		// would double vote memory for nothing.
		for _, v := range votes {
			if idx, ok := j.slotOf[v.Question]; ok {
				s := j.slots[idx]
				if s.votes == nil {
					// Size for one HIT's worth of assignments; retried
					// lineages append past the hint and just regrow.
					s.votes = make([]combine.Vote, 0, j.phys.Assignments)
				}
				s.votes = append(s.votes, v)
			}
		}
	}
	// Resolve pending counts: one per question (pair interfaces) or one
	// per candidate cell (grid interfaces).
	var touchErr error
	touch := func(key string) {
		idx, ok := j.slotOf[key]
		if !ok {
			return
		}
		s := j.slots[idx]
		s.pending--
		if done > s.ready {
			s.ready = done
		}
		if s.pending == 0 && !s.decided && j.perQ {
			if err := j.decideSlot(s, key); err != nil && touchErr == nil {
				touchErr = err
			}
			s.decided = true
		}
	}
	for _, h := range c.HITs {
		for qi := range h.Questions {
			q := &h.Questions[qi]
			// Questions being retried after a refusal or an expiry stay
			// pending; their verdicts arrive with a later chunk. (The
			// partial votes of an expired HIT were appended to their
			// slots above — join slots accumulate votes across the
			// lineage, so nothing needs the poster's carry here.)
			if retrying[q.ID] > 0 {
				retrying[q.ID]--
				continue
			}
			if q.Kind == hit.JoinGridQ {
				for _, lt := range q.LeftItems {
					for _, rt := range q.RightItems {
						touch(join.Pair{Left: lt, Right: rt}.Key())
					}
				}
				continue
			}
			touch(q.ID)
		}
	}
	if touchErr != nil {
		return touchErr
	}
	if !j.perQ {
		j.eosVotes = append(j.eosVotes, votes...)
	}
	j.acct.Collected(res.TotalAssignments, poster.ExpiredCount(res.Expired), done, exhausted)
	return nil
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
