package combine

import (
	"fmt"
	"math"
	"sort"
)

// QualityAdjust implements the quality-management algorithm of Ipeirotis,
// Provost & Wang (HCOMP 2010), which the paper uses as its second
// combiner (§2.1, §3.3.2): an expectation-maximization loop in the style
// of Dawid & Skene (1979) that
//
//  1. estimates a confusion matrix per worker (how often worker w says
//     label l when the truth is j), which "identifies spammers and
//     worker bias",
//  2. re-estimates per-question posteriors from those matrices, and
//  3. repeats (the paper runs five iterations).
//
// Decisions then minimize expected misclassification cost; the paper
// "penalize[s] false negatives twice as heavily as false positives",
// which CostOf encodes.
type QualityAdjust struct {
	cfg QAConfig
	// workerQuality is populated by Combine: 0 = perfect spammer,
	// 1 = perfect worker (Ipeirotis' expected-cost-based quality).
	workerQuality map[string]float64
}

// QAConfig parametrizes the EM loop.
type QAConfig struct {
	// Iterations is the number of EM rounds (paper: 5).
	Iterations int
	// Smoothing is Laplace smoothing added to confusion-matrix counts
	// so unseen (worker, label) cells keep non-zero probability.
	Smoothing float64
	// Costs maps truth→answer misclassification cost. Missing entries
	// cost 1 off-diagonal and 0 on-diagonal. The paper's join runs set
	// Costs[{"yes","no"}] = 2 (a false negative costs double).
	Costs map[[2]string]float64
}

// DefaultQAConfig returns the paper's parametrization: 5 iterations and a
// 2× false-negative penalty for yes/no questions.
func DefaultQAConfig() QAConfig {
	return QAConfig{
		Iterations: 5,
		Smoothing:  0.01,
		Costs:      map[[2]string]float64{{"yes", "no"}: 2},
	}
}

// NewQualityAdjust builds the combiner.
func NewQualityAdjust(cfg QAConfig) *QualityAdjust {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 5
	}
	if cfg.Smoothing <= 0 {
		cfg.Smoothing = 0.01
	}
	return &QualityAdjust{cfg: cfg}
}

// Name implements Combiner.
func (qa *QualityAdjust) Name() string { return "QualityAdjust" }

// CostOf returns the configured cost of answering `answer` when the truth
// is `truth`.
func (qa *QualityAdjust) CostOf(truth, answer string) float64 {
	if truth == answer {
		if c, ok := qa.cfg.Costs[[2]string{truth, answer}]; ok {
			return c
		}
		return 0
	}
	if c, ok := qa.cfg.Costs[[2]string{truth, answer}]; ok {
		return c
	}
	return 1
}

// WorkerQuality returns per-worker quality scores from the most recent
// Combine call: 1 − normalized expected cost, so spammers score ≈ 0.
// The paper uses these to "effectively eliminate and identify workers who
// generate spam answers" (§6).
func (qa *QualityAdjust) WorkerQuality() map[string]float64 {
	out := make(map[string]float64, len(qa.workerQuality))
	for w, q := range qa.workerQuality {
		out[w] = q
	}
	return out
}

// Combine implements Combiner via EM.
func (qa *QualityAdjust) Combine(votes []Vote) (map[string]Decision, error) {
	if len(votes) == 0 {
		return map[string]Decision{}, nil
	}
	// --- Index questions, workers, labels.
	qOrder, byQ := groupByQuestion(votes)
	labelSet := map[string]bool{}
	workerSet := map[string]bool{}
	for _, v := range votes {
		labelSet[v.Value] = true
		workerSet[v.Worker] = true
	}
	labels := make([]string, 0, len(labelSet))
	for l := range labelSet {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	if len(labels) == 1 {
		// Unanimous single label across all questions: nothing to learn.
		out := make(map[string]Decision, len(byQ))
		for q, vs := range byQ {
			out[q] = Decision{Value: labels[0], Confidence: 1, Votes: len(vs)}
		}
		qa.workerQuality = map[string]float64{}
		for w := range workerSet {
			qa.workerQuality[w] = 1
		}
		return out, nil
	}
	lIdx := make(map[string]int, len(labels))
	for i, l := range labels {
		lIdx[l] = i
	}
	workers := make([]string, 0, len(workerSet))
	for w := range workerSet {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	wIdx := make(map[string]int, len(workers))
	for i, w := range workers {
		wIdx[w] = i
	}
	L, W, Q := len(labels), len(workers), len(qOrder)

	// votesByQ[q] = list of (worker, label) index pairs.
	type wl struct{ w, l int }
	votesByQ := make([][]wl, Q)
	for qi, q := range qOrder {
		for _, v := range byQ[q] {
			votesByQ[qi] = append(votesByQ[qi], wl{wIdx[v.Worker], lIdx[v.Value]})
		}
	}

	// --- Initialize posteriors with (soft) majority vote.
	post := make([][]float64, Q)
	for qi := range post {
		post[qi] = make([]float64, L)
		for _, v := range votesByQ[qi] {
			post[qi][v.l]++
		}
		normalize(post[qi])
	}

	conf := make([][][]float64, W) // conf[w][truth][answer]
	prior := make([]float64, L)

	for iter := 0; iter < qa.cfg.Iterations; iter++ {
		// --- M-step: class priors and worker confusion matrices from
		// current posteriors.
		for j := range prior {
			prior[j] = qa.cfg.Smoothing
		}
		for qi := range post {
			for j, p := range post[qi] {
				prior[j] += p
			}
		}
		normalize(prior)

		for w := range conf {
			conf[w] = make([][]float64, L)
			for j := range conf[w] {
				conf[w][j] = make([]float64, L)
				for l := range conf[w][j] {
					conf[w][j][l] = qa.cfg.Smoothing
				}
			}
		}
		for qi := range votesByQ {
			for _, v := range votesByQ[qi] {
				for j := 0; j < L; j++ {
					conf[v.w][j][v.l] += post[qi][j]
				}
			}
		}
		for w := range conf {
			for j := range conf[w] {
				normalize(conf[w][j])
			}
		}

		// --- E-step: posteriors from priors and confusion matrices,
		// in log space for stability.
		for qi := range post {
			logp := make([]float64, L)
			for j := 0; j < L; j++ {
				logp[j] = math.Log(prior[j])
				for _, v := range votesByQ[qi] {
					logp[j] += math.Log(conf[v.w][j][v.l])
				}
			}
			softmaxInto(post[qi], logp)
		}
	}

	// --- Decisions: minimize expected cost under the posterior.
	out := make(map[string]Decision, Q)
	for qi, q := range qOrder {
		bestL, bestCost := 0, math.Inf(1)
		for l := 0; l < L; l++ {
			var cost float64
			for j := 0; j < L; j++ {
				cost += post[qi][j] * qa.CostOf(labels[j], labels[l])
			}
			if cost < bestCost || (cost == bestCost && labels[l] < labels[bestL]) {
				bestL, bestCost = l, cost
			}
		}
		out[q] = Decision{
			Value:      labels[bestL],
			Confidence: post[qi][bestL],
			Votes:      len(votesByQ[qi]),
		}
	}

	// --- Worker quality: 1 − normalized expected cost of the worker's
	// "soft label" for each answer they give (Ipeirotis §3.2). A worker
	// whose answers carry no information about the truth has quality 0.
	qa.workerQuality = make(map[string]float64, W)
	// Expected cost of a random spammer who answers with the prior.
	spamCost := 0.0
	for j := 0; j < L; j++ {
		for l := 0; l < L; l++ {
			spamCost += prior[j] * prior[l] * qa.CostOf(labels[j], labels[l])
		}
	}
	for w := 0; w < W; w++ {
		// P(answer=l) under priors, and soft posterior P(truth=j | w says l).
		var expCost float64
		for l := 0; l < L; l++ {
			var pAnswer float64
			softPost := make([]float64, L)
			for j := 0; j < L; j++ {
				softPost[j] = prior[j] * conf[w][j][l]
				pAnswer += softPost[j]
			}
			if pAnswer == 0 {
				continue
			}
			for j := range softPost {
				softPost[j] /= pAnswer
			}
			// Cost of the minimum-cost decision given this soft label.
			best := math.Inf(1)
			for d := 0; d < L; d++ {
				var c float64
				for j := 0; j < L; j++ {
					c += softPost[j] * qa.CostOf(labels[j], labels[d])
				}
				if c < best {
					best = c
				}
			}
			expCost += pAnswer * best
		}
		if spamCost <= 0 {
			qa.workerQuality[workers[w]] = 1
			continue
		}
		quality := 1 - expCost/spamCost
		if quality < 0 {
			quality = 0
		}
		qa.workerQuality[workers[w]] = quality
	}
	return out, nil
}

func normalize(xs []float64) {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if sum == 0 {
		for i := range xs {
			xs[i] = 1 / float64(len(xs))
		}
		return
	}
	for i := range xs {
		xs[i] /= sum
	}
}

func softmaxInto(dst, logp []float64) {
	maxv := math.Inf(-1)
	for _, v := range logp {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logp {
		dst[i] = math.Exp(v - maxv)
		sum += dst[i]
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// Ratings --------------------------------------------------------------

// RatingSummary is the combined result of numeric ratings for one item:
// the mean drives the Rate sort order; the standard deviation drives the
// hybrid algorithm's confidence windows (paper §4.1.3).
type RatingSummary struct {
	Mean  float64
	Std   float64
	Count int
}

// CombineRatings averages numeric ratings per question.
func CombineRatings(ratings map[string][]float64) map[string]RatingSummary {
	out := make(map[string]RatingSummary, len(ratings))
	for q, rs := range ratings {
		if len(rs) == 0 {
			continue
		}
		var sum float64
		for _, r := range rs {
			sum += r
		}
		mean := sum / float64(len(rs))
		var ss float64
		for _, r := range rs {
			d := r - mean
			ss += d * d
		}
		std := 0.0
		if len(rs) > 1 {
			std = math.Sqrt(ss / float64(len(rs)))
		}
		out[q] = RatingSummary{Mean: mean, Std: std, Count: len(rs)}
	}
	return out
}

// ErrNoVotes reports combination over an empty vote set for a question
// that was expected to have answers.
var ErrNoVotes = fmt.Errorf("combine: no votes")
