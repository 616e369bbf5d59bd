package crowd

import (
	"fmt"
	"testing"

	"qurk/internal/hit"
)

// assignmentsEqual compares two run results field by field.
func assignmentsEqual(t *testing.T, a, b *RunResult) {
	t.Helper()
	if a.TotalAssignments != b.TotalAssignments {
		t.Fatalf("TotalAssignments %d != %d", a.TotalAssignments, b.TotalAssignments)
	}
	if a.MakespanHours != b.MakespanHours {
		t.Fatalf("MakespanHours %v != %v", a.MakespanHours, b.MakespanHours)
	}
	if len(a.Incomplete) != len(b.Incomplete) {
		t.Fatalf("Incomplete %v != %v", a.Incomplete, b.Incomplete)
	}
	for i := range a.Incomplete {
		if a.Incomplete[i] != b.Incomplete[i] {
			t.Fatalf("Incomplete[%d] %q != %q", i, a.Incomplete[i], b.Incomplete[i])
		}
	}
	for i := range a.Assignments {
		x, y := a.Assignments[i], b.Assignments[i]
		if x.ID != y.ID || x.HITID != y.HITID || x.WorkerID != y.WorkerID || x.SubmitHours != y.SubmitHours {
			t.Fatalf("assignment %d differs: %+v vs %+v", i, x, y)
		}
		if len(x.Answers) != len(y.Answers) {
			t.Fatalf("assignment %d answer counts differ", i)
		}
		for j := range x.Answers {
			ax, ay := x.Answers[j], y.Answers[j]
			if ax.Bool != ay.Bool || ax.Rating != ay.Rating ||
				fmt.Sprint(ax.Order) != fmt.Sprint(ay.Order) ||
				fmt.Sprint(ax.Pairs) != fmt.Sprint(ay.Pairs) ||
				fmt.Sprint(ax.Fields) != fmt.Sprint(ay.Fields) {
				t.Fatalf("assignment %d answer %d differs: %+v vs %+v", i, j, ax, ay)
			}
		}
	}
}

// TestRunParallelismInvariance is the tentpole's core guarantee: the
// same group simulated sequentially and on a wide worker pool produces
// bit-identical results, because every HIT draws from a private RNG
// seeded only by (seed, group ID, HIT ID).
func TestRunParallelismInvariance(t *testing.T) {
	oracle := &pairOracle{difficulty: 0.1, n: 1000}
	g := buildPairHITs(200, 5)
	runWith := func(par int) *RunResult {
		cfg := DefaultConfig(23)
		cfg.Parallelism = par
		m := NewSimMarket(cfg, oracle)
		res, err := m.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := runWith(1)
	for _, par := range []int{2, 8, 32} {
		assignmentsEqual(t, seq, runWith(par))
	}
}

// TestRunAsyncMatchesRun verifies the async path returns the blocking
// result.
func TestRunAsyncMatchesRun(t *testing.T) {
	oracle := &pairOracle{difficulty: 0.1, n: 1000}
	g := buildPairHITs(40, 5)
	m := NewSimMarket(DefaultConfig(31), oracle)
	blocking, err := m.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	a := <-m.RunAsync(g)
	if a.Err != nil {
		t.Fatal(a.Err)
	}
	assignmentsEqual(t, blocking, a.Result)
}

// TestConcurrentRunsAreIndependent hammers one market from many
// goroutines and checks each group's result matches its solo run —
// the concurrency contract on the Marketplace interface.
func TestConcurrentRunsAreIndependent(t *testing.T) {
	oracle := &pairOracle{difficulty: 0.1, n: 1000}
	groups := make([]*hit.Group, 8)
	for i := range groups {
		groups[i] = buildPairHITs(30, 5)
		groups[i].ID = fmt.Sprintf("cg%d", i)
		for _, h := range groups[i].HITs {
			h.GroupID = groups[i].ID
		}
	}
	solo := make([]*RunResult, len(groups))
	for i, g := range groups {
		m := NewSimMarket(DefaultConfig(43), oracle)
		r, err := m.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = r
	}
	m := NewSimMarket(DefaultConfig(43), oracle)
	chans := make([]<-chan Async, len(groups))
	for i, g := range groups {
		chans[i] = m.RunAsync(g)
	}
	for i, ch := range chans {
		a := <-ch
		if a.Err != nil {
			t.Fatal(a.Err)
		}
		assignmentsEqual(t, solo[i], a.Result)
	}
}
