// Streaming POSSIBLY-feature extraction (paper §3.2's linear pass,
// rebuilt on the chunked poster). An extStream mints one composite
// extraction question per arriving tuple (or one per feature when
// ExtractCombined is off), fills HITs of Options.ExtractBatch, and
// posts them through internal/poster — so extraction inherits the
// refusal/expiry retry policies, overlaps posting with collection, and
// (on the probe side of a join) overlaps with upstream operators still
// producing tuples. Feature values resolve per chunk with PerQuestion
// combiners; a stateful combiner defers to one end-of-stream combine,
// exactly as the other streaming operators do.
//
// A join that needs the global candidate set (SmartBatch grids, §3.2
// feature selection) drains its inputs first and then ingests them
// whole into the same streams; only there does a stream also tally κ
// rating matrices and package its values as a join.Extraction.
//
// Questions that exhaust their retry budgets resolve to UNKNOWN — the
// paper's wildcard, which never prunes a candidate pair (§2.4) — and
// are reported in Stats.Incomplete.
package exec

import (
	"context"
	"fmt"
	"strings"

	"qurk/internal/combine"
	"qurk/internal/hit"
	"qurk/internal/join"
	"qurk/internal/poster"
	"qurk/internal/relation"
)

// extStream streams one side's feature extraction through the chunked
// poster. Subjects are ingested in input order; values[i] is nil until
// subject i's feature votes resolved.
type extStream struct {
	x        *executor
	groupID  string
	features []join.Feature
	fields   []string
	combined bool
	batch    int
	comb     combine.Combiner
	perQ     bool
	builder  *hit.Builder
	post     *poster.Poster
	acct     *opAcct

	values   []map[string]string
	pending  []int
	ready    []float64
	resolved int // leading subjects fully resolved (the consumption frontier)
	qbuf     []hit.Question
	qSlot    map[string]int
	// eosVotes buffers per-(subject, field) votes for stateful
	// combiners, keyed like join.Extract's vote stream so one Combine
	// call resolves every subject at end of stream.
	eosVotes []combine.Vote
	eos      bool
	final    bool
	lastDone float64
	// kappa, when non-nil, tallies every vote per subject for §3.2
	// feature selection (see tallyKappa).
	kappa *join.KappaTally
}

// newExtStream builds an extraction stream; label names its Stats slot
// ("extract-left"/"extract-right") and seq is the owning operator's
// shared chunk counter so collection interleaves deterministically
// with the operator's other posters.
func (x *executor) newExtStream(label, groupID string, features []join.Feature, assignments int, seq *int) (*extStream, error) {
	comb, err := x.eng.Combiner()
	if err != nil {
		return nil, err
	}
	opts := &x.eng.Options
	batch := opts.ExtractBatch
	if batch <= 0 {
		batch = 4
	}
	e := &extStream{
		x:        x,
		groupID:  groupID,
		features: features,
		combined: opts.ExtractCombined,
		batch:    batch,
		comb:     comb,
		perQ:     combine.IsPerQuestion(comb),
		builder:  hit.NewBuilder(groupID, assignments, 1),
		qSlot:    map[string]int{},
	}
	for _, f := range features {
		if err := f.Validate(); err != nil {
			return nil, err
		}
		e.fields = append(e.fields, f.Field)
	}
	if len(e.fields) == 0 {
		return nil, fmt.Errorf("exec: extraction stream %s has no features", label)
	}
	e.acct = &opAcct{x: x, label: label, asn: assignments, slot: x.stats.registerOp(label)}
	e.post = x.newPoster(groupID, seq, e.acct)
	return e, nil
}

// tallyKappa makes the stream record every vote it resolves in
// per-feature rating matrices over n subjects — the κ input of §3.2
// feature selection. Call before ingesting; streams left without it do
// no per-vote work beyond resolving values.
func (e *extStream) tallyKappa(n int) error {
	k, err := join.NewKappaTally(e.features, n)
	e.kappa = k
	return err
}

// extraction packages a fully resolved stream over the materialized
// rel as a join.Extraction: values keyed by tuple (what PairPasses and
// ChooseFeatures read) plus the κ matrices when tallied.
func (e *extStream) extraction(rel *relation.Relation) *join.Extraction {
	ext := &join.Extraction{Relation: rel, Values: make(map[uint64]map[string]string, rel.Len())}
	for i := 0; i < rel.Len(); i++ {
		ext.Values[rel.Row(i).Key()] = e.values[i]
	}
	if e.kappa != nil {
		ext.Matrices = e.kappa.Matrices
	}
	return ext
}

// ingest mints subject i's extraction question(s) and flushes full
// HITs onto the poster. Subjects must arrive in input order.
func (e *extStream) ingest(t relation.Tuple) error {
	i := len(e.values)
	e.values = append(e.values, nil)
	e.ready = append(e.ready, 0)
	if e.combined {
		e.pending = append(e.pending, 1)
		qs := make([]hit.Question, len(e.features))
		for fi, f := range e.features {
			qs[fi] = hit.Question{
				Kind:   hit.GenerativeQ,
				Task:   f.Task.Name,
				Tuple:  t,
				Fields: []string{f.Field},
			}
		}
		comp, err := hit.CombinedQuestion(e.qidFor(i, ""), qs)
		if err != nil {
			return err
		}
		e.qSlot[comp.ID] = i
		// Served values cost no crowd time: they resolve at clock zero,
		// so the pair-generation frontier treats the subject as ready on
		// arrival.
		served, err := e.post.Serve(&comp, 0, e.resolveQ)
		if err != nil || served {
			return err
		}
		e.qbuf = append(e.qbuf, comp)
		return e.post.FlushQuestions(e.builder, &e.qbuf, e.batch, false)
	}
	e.pending = append(e.pending, len(e.features))
	for _, f := range e.features {
		q := hit.Question{
			ID:     fmt.Sprintf("%s/t%05d.%s", e.groupID, i, f.Field),
			Kind:   hit.GenerativeQ,
			Task:   f.Task.Name,
			Tuple:  t,
			Fields: []string{f.Field},
		}
		e.qSlot[q.ID] = i
		served, err := e.post.Serve(&q, 0, e.resolveQ)
		if err != nil {
			return err
		}
		if served {
			continue
		}
		e.qbuf = append(e.qbuf, q)
	}
	return e.post.FlushQuestions(e.builder, &e.qbuf, e.batch, false)
}

// collect awaits the stream's oldest in-flight chunk and resolves it.
func (e *extStream) collect(ctx context.Context) error {
	_, err := e.post.CollectOne(ctx, e.resolveQ)
	return err
}

// finishInput flushes the trailing partial HIT; no more subjects will
// be ingested.
func (e *extStream) finishInput() error {
	e.eos = true
	return e.post.FlushQuestions(e.builder, &e.qbuf, e.batch, true)
}

// voteKey distinguishes one subject's one feature in the EOS vote
// stream (composite questions share a question ID across fields).
func extVoteKey(qid, field string) string { return qid + "#" + field }

// resolveQ is the poster's per-question callback: it routes one
// resolved extraction question's answers into values (PerQuestion) or
// the EOS vote buffer (stateful combiners), advancing the frontier.
func (e *extStream) resolveQ(q *hit.Question, as []hit.CachedAnswer, done float64) error {
	i, ok := e.qSlot[q.ID]
	if !ok {
		return fmt.Errorf("exec: extraction answer for unknown question %s", q.ID)
	}
	if done > e.lastDone {
		e.lastDone = done
	}
	if done > e.ready[i] {
		e.ready[i] = done
	}
	if e.kappa != nil {
		for _, field := range q.Fields {
			for _, ca := range as {
				if raw, ok := ca.Answer.Fields[field]; ok {
					if err := e.kappa.Add(i, field, raw); err != nil {
						return err
					}
				}
			}
		}
	}
	if !e.perQ {
		for _, field := range q.Fields {
			for _, ca := range as {
				raw, ok := ca.Answer.Fields[field]
				if !ok {
					continue
				}
				e.eosVotes = append(e.eosVotes, combine.Vote{
					Question: extVoteKey(q.ID, field),
					Worker:   ca.WorkerID,
					Value:    raw,
				})
			}
		}
		e.pending[i]--
		e.advanceFrontier()
		return nil
	}
	if e.values[i] == nil {
		e.values[i] = make(map[string]string, len(e.fields))
	}
	for _, field := range q.Fields {
		var votes []combine.Vote
		for _, ca := range as {
			raw, ok := ca.Answer.Fields[field]
			if !ok {
				continue
			}
			votes = append(votes, combine.Vote{Question: q.ID, Worker: ca.WorkerID, Value: raw})
		}
		val := "UNKNOWN"
		if len(votes) > 0 {
			decisions, err := e.comb.Combine(votes)
			if err != nil {
				return err
			}
			if d, ok := decisions[q.ID]; ok && d.Value != "" {
				val = d.Value
			}
		}
		e.values[i][field] = val
	}
	e.pending[i]--
	e.advanceFrontier()
	return nil
}

// advanceFrontier moves the resolved watermark over leading subjects
// whose questions have all resolved. With a PerQuestion combiner the
// watermark is the join's pair-generation frontier; stateful combiners
// only advance it at finalizeEOS.
func (e *extStream) advanceFrontier() {
	if !e.perQ {
		return
	}
	for e.resolved < len(e.pending) && e.pending[e.resolved] == 0 && e.values[e.resolved] != nil {
		e.resolved++
	}
}

// finalizeEOS resolves every subject with one combine over all
// buffered votes (stateful-combiner path). A no-op for PerQuestion
// combiners.
func (e *extStream) finalizeEOS() error {
	if e.final {
		return nil
	}
	e.final = true
	if e.perQ {
		return nil
	}
	decisions, err := e.comb.Combine(e.eosVotes)
	if err != nil {
		return err
	}
	for i := range e.values {
		if e.values[i] == nil {
			e.values[i] = make(map[string]string, len(e.fields))
		}
		for _, field := range e.fields {
			qid := e.qidFor(i, field)
			val := "UNKNOWN"
			if d, ok := decisions[extVoteKey(qid, field)]; ok && d.Value != "" {
				val = d.Value
			}
			e.values[i][field] = val
		}
		if e.lastDone > e.ready[i] {
			e.ready[i] = e.lastDone
		}
	}
	e.resolved = len(e.values)
	// Durable runs checkpoint the carry: every subject's resolved
	// feature values at the end-of-stream combine.
	return e.x.checkpoint(ckptExtraction, e.groupID, digestValues(e.values, e.fields), e.lastDone)
}

// qidFor is subject i's question ID for the given field: one composite
// question per subject in combined mode (the field is irrelevant), one
// question per (subject, feature) otherwise. IDs derive from the input
// ordinal, never a builder counter, so they are stable at any chunking.
func (e *extStream) qidFor(i int, field string) string {
	if e.combined {
		return hit.MintID(e.groupID, "t", i, 5)
	}
	return hit.MintID(e.groupID, "t", i, 5) + "." + field
}

// done reports whether every ingested subject has resolved values.
func (e *extStream) done() bool {
	return e.eos && e.post.Idle() && (e.perQ || e.final) && e.resolved == len(e.values)
}

// featureMatch applies the paper's §2.4 matching rule over resolved
// value maps: a pair survives unless two KNOWN values differ (UNKNOWN
// and unextracted features never prune) — the streaming equivalent of
// join.PairPasses.
func featureMatch(l, r map[string]string, fields []string) bool {
	for _, f := range fields {
		lv, lok := l[f]
		rv, rok := r[f]
		if !lok || !rok {
			continue
		}
		if strings.EqualFold(lv, "UNKNOWN") || strings.EqualFold(rv, "UNKNOWN") {
			continue
		}
		if lv != rv {
			return false
		}
	}
	return true
}
