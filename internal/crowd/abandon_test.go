package crowd

import (
	"fmt"
	"reflect"
	"testing"

	"qurk/internal/hit"
)

// Tests for the simulator's worker-abandonment model: with
// Config.AbandonProb set, a sampled worker may accept a HIT and never
// submit it, so the assignment expires at AssignmentDurationHours and is
// reported in RunResult.Expired. Abandonment must be deterministic per
// (seed, groupID, hitID) — the same contract every other simulated
// outcome already honors.

func abandonGroup(n int) *hit.Group {
	g := &hit.Group{ID: "abandon-test"}
	for i := 0; i < n; i++ {
		g.HITs = append(g.HITs, &hit.HIT{
			ID:          fmt.Sprintf("h%03d", i),
			GroupID:     g.ID,
			Kind:        hit.FilterQ,
			Assignments: 5,
			Questions: []hit.Question{
				{ID: fmt.Sprintf("q%03d", i), Kind: hit.FilterQ, Task: "isEven", Tuple: item(fmt.Sprintf("i%d", i))},
			},
		})
	}
	return g
}

func abandonMarket(seed int64, prob float64) *SimMarket {
	cfg := DefaultConfig(seed)
	cfg.AbandonProb = prob
	return NewSimMarket(cfg, &pairOracle{n: 32})
}

// TestAbandonmentOffByDefault: the zero-valued knob draws nothing from
// the per-HIT RNG streams, so legacy runs stay bit-identical and no HIT
// reports expiry.
func TestAbandonmentOffByDefault(t *testing.T) {
	base, err := abandonMarket(3, 0).Run(abandonGroup(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Expired) != 0 {
		t.Fatalf("no abandonment configured, got Expired = %v", base.Expired)
	}
	if base.TotalAssignments != 16*5 {
		t.Fatalf("TotalAssignments = %d, want %d", base.TotalAssignments, 16*5)
	}
}

// TestAbandonmentDeterministic: same seed, same config → identical
// expiry pattern and identical surviving assignments, at any
// parallelism.
func TestAbandonmentDeterministic(t *testing.T) {
	run := func(parallelism int) *RunResult {
		cfg := DefaultConfig(9)
		cfg.AbandonProb = 0.3
		cfg.Parallelism = parallelism
		m := NewSimMarket(cfg, &pairOracle{n: 32})
		res, err := m.Run(abandonGroup(24))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(0), run(1), run(4)
	if len(a.Expired) == 0 {
		t.Fatal("AbandonProb = 0.3 over 120 assignments expired nothing; model inactive")
	}
	for _, other := range []*RunResult{b, c} {
		if !reflect.DeepEqual(a.Expired, other.Expired) {
			t.Errorf("expiry pattern differs across parallelism: %v vs %v", a.Expired, other.Expired)
		}
		if !reflect.DeepEqual(a.Assignments, other.Assignments) {
			t.Error("surviving assignments differ across parallelism")
		}
	}
	// Accounting: completed + expired = requested.
	exp := 0
	for _, n := range a.Expired {
		exp += n
	}
	if a.TotalAssignments+exp != 24*5 {
		t.Errorf("completed %d + expired %d != requested %d", a.TotalAssignments, exp, 24*5)
	}
}

// TestAbandonmentExtendsMakespan: an expired assignment is only known
// to be gone at the assignment deadline, so the group's makespan is
// floored at AssignmentDurationHours.
func TestAbandonmentExtendsMakespan(t *testing.T) {
	cfg := DefaultConfig(11)
	cfg.AbandonProb = 0.5
	cfg.AssignmentDurationHours = 3.5
	m := NewSimMarket(cfg, &pairOracle{n: 32})
	res, err := m.Run(abandonGroup(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Expired) == 0 {
		t.Fatal("expected expirations at AbandonProb = 0.5")
	}
	if res.MakespanHours < 3.5 {
		t.Errorf("MakespanHours = %.3f, want ≥ the 3.5h assignment deadline", res.MakespanHours)
	}

	clean, err := abandonMarket(11, 0).Run(abandonGroup(8))
	if err != nil {
		t.Fatal(err)
	}
	if clean.MakespanHours >= res.MakespanHours {
		t.Errorf("expiry must extend the makespan: clean %.3fh vs abandoned %.3fh",
			clean.MakespanHours, res.MakespanHours)
	}
}
