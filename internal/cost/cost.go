// Package cost implements the paper's pricing model and HIT accounting:
// every assignment pays the worker $0.01 plus Amazon's half-cent
// commission ($0.015 total, §3.3.2), and the optimizer's objective is to
// minimize the total number of HITs (§2.6).
package cost

import (
	"fmt"
	"strings"
	"sync"
)

// Cents per assignment, per the paper.
const (
	// WorkerCents is the payment to the worker per assignment.
	WorkerCents = 1.0
	// CommissionCents is Amazon's commission per assignment.
	CommissionCents = 0.5
	// AssignmentCents is the full cost of one assignment.
	AssignmentCents = WorkerCents + CommissionCents
)

// Dollars returns the dollar cost of posting `hits` HITs at
// `assignmentsPerHIT` assignments each.
func Dollars(hits, assignmentsPerHIT int) float64 {
	return float64(hits) * float64(assignmentsPerHIT) * AssignmentCents / 100
}

// Entry is one labelled line of spending.
type Entry struct {
	// Label names the operator that spent.
	Label string
	// HITs is the number of HITs posted.
	HITs int
	// Assignments is the workers-per-HIT level the HITs were posted at.
	Assignments int
}

// Dollars returns the entry's cost.
func (e Entry) Dollars() float64 { return Dollars(e.HITs, e.Assignments) }

// Ledger accumulates labelled HIT spending for a query run. It is safe
// for concurrent use by the executor's operator goroutines.
type Ledger struct {
	mu      sync.Mutex
	entries []Entry
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Add records a line of spending.
func (l *Ledger) Add(label string, hits, assignmentsPerHIT int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, Entry{Label: label, HITs: hits, Assignments: assignmentsPerHIT})
}

// Entries returns a copy of the recorded lines.
func (l *Ledger) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out
}

// DollarsFor sums the dollar cost of the entries labelled label, in
// entry order, without copying the ledger.
func (l *Ledger) DollarsFor(label string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var d float64
	for _, e := range l.entries {
		if e.Label == label {
			d += e.Dollars()
		}
	}
	return d
}

// TotalHITs sums HITs across entries.
func (l *Ledger) TotalHITs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.entries {
		n += e.HITs
	}
	return n
}

// TotalDollars sums dollar cost across entries.
func (l *Ledger) TotalDollars() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var d float64
	for _, e := range l.entries {
		d += e.Dollars()
	}
	return d
}

// Report renders a line-itemed cost table.
func (l *Ledger) Report() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %8s %6s %10s\n", "operation", "HITs", "asgn", "cost")
	var hits int
	var dollars float64
	for _, e := range l.entries {
		fmt.Fprintf(&b, "%-40s %8d %6d %10.2f\n", e.Label, e.HITs, e.Assignments, e.Dollars())
		hits += e.HITs
		dollars += e.Dollars()
	}
	fmt.Fprintf(&b, "%-40s %8d %6s %10.2f\n", "TOTAL", hits, "", dollars)
	return b.String()
}
