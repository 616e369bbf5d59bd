package qurk

import (
	"context"
	"strings"
	"testing"

	"qurk/internal/exec"
	"qurk/internal/plan"
)

// runQuery parses, plans, and runs one query string on an engine the
// test built itself: the path Client.Run takes.
func runQuery(e *Engine, src string) (*Relation, *ExecStats, error) {
	root, err := plan.BuildQuery(src, e.Library)
	if err != nil {
		return nil, nil, err
	}
	plan.Pin(root, e.Options)
	return exec.Run(context.Background(), e, root, nil)
}

// TestFacadeEndToEnd exercises the public API exactly as the README's
// quick start does.
func TestFacadeEndToEnd(t *testing.T) {
	d, err := OpenDataset("celebrities", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(NewSimMarket(DefaultMarketConfig(1), d.Oracle), WithDataset(d))

	out, stats, err := client.Run(context.Background(), `SELECT c.name FROM celeb AS c WHERE isFemale(c.img)`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 || out.Len() == 20 {
		t.Errorf("filter should split the table, got %d rows", out.Len())
	}
	if stats.TotalHITs() == 0 {
		t.Error("no HITs posted")
	}
	if DollarCost(stats.TotalHITs(), 5) <= 0 {
		t.Error("cost should be positive")
	}
}

func TestFacadeExplain(t *testing.T) {
	d := NewCelebrities(CelebrityConfig{N: 5, Seed: 2})
	client := NewClient(NewSimMarket(DefaultMarketConfig(2), d.Oracle()))
	eng := client.Engine()
	eng.Catalog.Register(d.Celeb)
	eng.Catalog.Register(d.Photos)
	eng.Library.MustRegister(SamePersonTask())
	eng.Library.MustRegister(GenderTask())
	plan, err := client.Explain(`
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CrowdJoin", "gender", "Scan"} {
		if !strings.Contains(plan, want) {
			t.Errorf("explain missing %q:\n%s", want, plan)
		}
	}
	if _, err := client.Explain("not a query"); err == nil {
		t.Error("explain should surface parse errors")
	}
}

// TestExplainShowsThePlanRunRuns: Explain prices the tree Run executes
// — the client's options pinned into the plan — not the free
// optimizer's choice. With default options a 40-square ORDER BY runs
// Compare S=5 at 97 HITs, and Explain must say so.
func TestExplainShowsThePlanRunRuns(t *testing.T) {
	d, err := OpenDataset("squares", 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(NewSimMarket(DefaultMarketConfig(1), d.Oracle), WithDataset(d))
	const query = `SELECT label FROM squares ORDER BY squareSorter(img)`
	rendered, err := client.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Compare S=5", "est 97 HITs"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("explain missing %q:\n%s", want, rendered)
		}
	}
	_, stats, err := client.Run(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.TotalHITs(); got != 97 {
		t.Errorf("run posted %d HITs, want the 97 Explain priced", got)
	}
}

func TestFacadeDirectOperators(t *testing.T) {
	sq := NewSquares(10)
	market := NewSimMarket(DefaultMarketConfig(3), sq.Oracle())
	cr, err := Compare(sq.Rel, SquareSorterTask(), CompareOptions{GroupSize: 5, Assignments: 5}, market)
	if err != nil {
		t.Fatal(err)
	}
	tau, err := TauBetweenOrders(cr.Order, sq.TrueOrder())
	if err != nil {
		t.Fatal(err)
	}
	if tau < 0.95 {
		t.Errorf("compare tau = %.3f", tau)
	}
	rr, err := Rate(sq.Rel, SquareSorterTask(), RateOptions{}, market)
	if err != nil {
		t.Fatal(err)
	}
	if rr.HITCount >= cr.HITCount {
		t.Error("rate should be cheaper than compare")
	}
}

func TestFacadeTaskDSL(t *testing.T) {
	script, err := ParseScript(`
TASK isFemale(field) TYPE Filter:
	Prompt: "<img src='%s'> Is the person a woman?", tuple[field]
	YesText: "Yes"
	NoText: "No"
	Combiner: MajorityVote

SELECT c.name FROM celeb AS c WHERE isFemale(c.img);
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(script.Tasks) != 1 || len(script.Queries) != 1 {
		t.Fatalf("script shape: %d tasks, %d queries", len(script.Tasks), len(script.Queries))
	}
	d := NewCelebrities(CelebrityConfig{N: 10, Seed: 4})
	client := NewClient(NewSimMarket(DefaultMarketConfig(4), d.Oracle()))
	client.Engine().Catalog.Register(d.Celeb)
	if err := client.Engine().Library.LoadScript(script); err != nil {
		t.Fatal(err)
	}
	out, _, err := client.Run(context.Background(), script.Queries[0].String())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("DSL-defined filter returned nothing")
	}
}
