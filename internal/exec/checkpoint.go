// Breaker checkpoints for durable runs. When the engine carries a
// journal (core.Engine.Journal, set by durable Client runs and qurkd),
// every pipeline breaker fingerprints its materialized state as it
// forms — sort groups, the join's build table, extraction carries —
// and hands the digest to the journal. On a fresh run the digest is
// appended; on a resumed run it is verified against the recorded one,
// so a resume whose replayed inputs diverged from the original run
// fails loudly instead of silently mixing two runs' state.
//
// Every question a poster serves from the engine's answer store is
// journaled as a replayed result (ckptAnswerReplay), so a resume
// verifies the same questions were served from the store; resuming
// against a store whose relevant entries changed fails loudly instead
// of silently mixing vote sets.
package exec

import (
	"hash/fnv"

	"qurk/internal/hit"
	"qurk/internal/relation"
)

// Checkpoint kinds written by the executor's breakers.
const (
	ckptSortGroup  = "sort-group"
	ckptJoinBuild  = "join-build"
	ckptExtraction = "extraction-carry"
	// ckptReplan records a mid-run re-optimization decision (join
	// interface switch, sort method switch). Resumed runs recompute the
	// decision from the same replayed counts and verify the digest, so a
	// durable resume can never diverge from the original run's plan.
	ckptReplan = "re-plan"
	// ckptAnswerReplay records one question served from the answer
	// store, keyed by its content.
	ckptAnswerReplay = "answer-replay"
)

// served is every poster's answer-store hook: it counts one question
// answered from the store as reuse and, in durable runs, journals the
// replay.
func (x *executor) served(q *hit.Question, key uint64, clock float64) error {
	x.stats.addReused(1)
	return x.checkpoint(ckptAnswerReplay, q.ID, key, clock)
}

// checkpoint forwards one breaker checkpoint to the engine's journal;
// a nil journal (non-durable run) makes it free.
func (x *executor) checkpoint(kind, label string, digest uint64, clock float64) error {
	if x.eng.Journal == nil {
		return nil
	}
	return x.eng.Journal.Checkpoint(kind, label, digest, clock)
}

// fnvFold mixes one 64-bit word into a running FNV-1a fingerprint.
func fnvFold(dig, v uint64) uint64 {
	const prime64 = 1099511628211
	if dig == 0 {
		dig = 14695981039346656037 // FNV offset basis
	}
	for i := 0; i < 8; i++ {
		dig ^= (v >> (8 * i)) & 0xff
		dig *= prime64
	}
	return dig
}

// fnvFoldString mixes a string into a running fingerprint.
func fnvFoldString(dig uint64, s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fnvFold(dig, h.Sum64())
}

// digestSortGroup fingerprints a settled crowd sort: the group's rows
// in input order plus the resolved permutation.
func digestSortGroup(order []int, sub *relation.Relation) uint64 {
	var dig uint64
	for i := 0; i < sub.Len(); i++ {
		dig = fnvFold(dig, sub.Row(i).Key())
	}
	for _, ri := range order {
		dig = fnvFold(dig, uint64(ri))
	}
	return dig
}

// digestRelation fingerprints a materialized relation in row order.
func digestRelation(rel *relation.Relation) uint64 {
	var dig uint64
	for i := 0; i < rel.Len(); i++ {
		dig = fnvFold(dig, rel.Row(i).Key())
	}
	return dig
}

// digest fingerprints the build table without re-reading spilled
// partitions: the spill table keeps a running digest as it appends.
func (b *buildTable) digest() uint64 {
	if b.sp != nil {
		return b.sp.Digest()
	}
	return digestRelation(b.rel)
}

// digestValues fingerprints an extraction stream's resolved feature
// values in subject order.
func digestValues(values []map[string]string, fields []string) uint64 {
	var dig uint64
	for _, m := range values {
		dig = fnvFold(dig, 0xfe)
		for _, f := range fields {
			dig = fnvFoldString(dig, m[f])
		}
	}
	return dig
}
