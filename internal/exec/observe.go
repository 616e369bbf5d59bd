package exec

// Observed-statistics feedback: operators measure what actually
// happened — a filter's accept fraction, a join's POSSIBLY pass
// fraction and match selectivity, a sort group's size, per-operator
// crowd latency and worker agreement — and feed it both to the run's
// Stats (for Client.Explain's est-vs-actual columns) and to the engine's
// shared history store (core.Engine.ObStats), which the next run's
// optimizer pass seeds its estimates from.

// ObservedStat is one statistic an operator measured during a run.
type ObservedStat struct {
	// Label is the operator's plan label (matches OpStat.Label and the
	// optimizer's OpCost.Label, so Explain can fold it onto the node).
	Label string
	// Task is the crowd task name — the stats-store key.
	Task string
	// Kind is one of the obstats.Kind* constants.
	Kind string
	// Value is the measurement; Weight the tuple/pair/vote count behind
	// it.
	Value, Weight float64
}

// addObserved appends one observation to the run's stats.
func (s *Stats) addObserved(o ObservedStat) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Observed = append(s.Observed, o)
}

// ObservedStats returns a copy of the run's observations.
func (s *Stats) ObservedStats() []ObservedStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ObservedStat(nil), s.Observed...)
}

// observe records one observed statistic into the run's Stats and into
// the engine's shared history store (when one is configured).
// Non-positive weights are dropped at the source.
func (x *executor) observe(label, taskName, kind string, value, weight float64) {
	if weight <= 0 {
		return
	}
	x.stats.addObserved(ObservedStat{Label: label, Task: taskName, Kind: kind, Value: value, Weight: weight})
	if x.eng.ObStats != nil {
		x.eng.ObStats.Observe(taskName, kind, value, weight)
	}
}
