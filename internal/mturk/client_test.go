package mturk

// Recorded-HTTP tests: the client exercises CreateHIT / poll / approve
// / expire against the in-process FakeServer over real HTTP with real
// SigV4 signatures — and zero network access beyond the loopback
// httptest listener.

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"qurk/internal/hit"
)

var t0 = time.Date(2026, 7, 1, 9, 0, 0, 0, time.UTC)

// newFixture wires a FakeServer and a Client to one shared FakeClock.
func newFixture(t *testing.T, fcfg FakeConfig) (*FakeServer, *Client, *FakeClock) {
	t.Helper()
	clock := NewFakeClock(t0)
	fcfg.Clock = clock
	f := NewFakeServer(fcfg)
	t.Cleanup(f.Close)
	c, err := New(Config{
		Endpoint:           f.URL(),
		AccessKey:          "FAKEKEY",
		SecretKey:          "FAKESECRET",
		Clock:              clock,
		PollInterval:       5 * time.Second,
		AssignmentDuration: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, c, clock
}

func filterGroup(n, assignments int) *hit.Group {
	g := &hit.Group{ID: "filter/isFemale@q"}
	for i := 0; i < n; i++ {
		g.HITs = append(g.HITs, &hit.HIT{
			ID: fmt.Sprintf("%s/hit%04d", g.ID, i+1), GroupID: g.ID,
			Kind: hit.FilterQ, Assignments: assignments, RewardCents: 1,
			Questions: []hit.Question{
				{ID: fmt.Sprintf("%s/t%05d", g.ID, i), Kind: hit.FilterQ, Task: "isFemale", Tuple: celebTuple(fmt.Sprintf("c%02d", i))},
			},
		})
	}
	return g
}

// TestClientCreatePollApprove: the full happy path — every HIT posted
// once, every fabricated submission collected, decoded, and approved.
func TestClientCreatePollApprove(t *testing.T) {
	f, c, _ := newFixture(t, FakeConfig{})
	group := filterGroup(4, 3)
	res, err := c.Run(group)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAssignments != 4*3 {
		t.Errorf("TotalAssignments = %d, want 12", res.TotalAssignments)
	}
	if len(res.Incomplete) != 0 || len(res.Expired) != 0 {
		t.Errorf("clean run reported Incomplete=%v Expired=%v", res.Incomplete, res.Expired)
	}
	if res.MakespanHours <= 0 {
		t.Error("makespan not derived from submit times")
	}
	if got := f.RequestCount(opCreateHIT); got != 4 {
		t.Errorf("CreateHIT called %d times, want 4", got)
	}
	if got := f.ApprovedCount(); got != 12 {
		t.Errorf("%d assignments approved, want 12", got)
	}
	// Every assignment decodes to exactly one answer per question, with
	// the engine's HIT IDs (not MTurk's) on the assignment.
	for _, a := range res.Assignments {
		if !strings.HasPrefix(a.HITID, "filter/isFemale@q/hit") {
			t.Errorf("assignment carries marketplace ID %q, want engine HIT ID", a.HITID)
		}
		if len(a.Answers) != 1 {
			t.Errorf("assignment %s has %d answers, want 1", a.ID, len(a.Answers))
		}
	}
}

// TestClientCreateHITRequestGolden pins the exact CreateHIT JSON body
// the client sends for a canonical HIT.
func TestClientCreateHITRequestGolden(t *testing.T) {
	f, c, _ := newFixture(t, FakeConfig{})
	g := &hit.Group{ID: "g@q", HITs: sampleHITs()[:1]}
	if _, err := c.Run(g); err != nil {
		t.Fatal(err)
	}
	var body string
	for _, r := range f.Requests() {
		if r.Op == opCreateHIT {
			body = r.Body
			break
		}
	}
	if body == "" {
		t.Fatal("no CreateHIT recorded")
	}
	var pretty map[string]any
	if err := json.Unmarshal([]byte(body), &pretty); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(pretty, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "createhit_request.golden.json", string(out)+"\n")
}

// TestClientExpiry: abandoned assignments never arrive; at the
// assignment deadline the client reports them expired per HIT, returns
// the partial votes it did collect, and force-expires the HIT.
func TestClientExpiry(t *testing.T) {
	f, c, _ := newFixture(t, FakeConfig{AbandonPct: 45})
	group := filterGroup(6, 5)
	res, err := c.Run(group)
	if err != nil {
		t.Fatal(err)
	}
	expired := 0
	for _, n := range res.Expired {
		expired += n
	}
	if expired == 0 {
		t.Fatal("AbandonPct = 45 over 30 assignments expired nothing")
	}
	if res.TotalAssignments+expired != 6*5 {
		t.Errorf("completed %d + expired %d != requested 30", res.TotalAssignments, expired)
	}
	// Expiry detection is on the deadline clock.
	if res.MakespanHours < (10 * time.Minute).Hours() {
		t.Errorf("makespan %.4fh below the 10m assignment deadline", res.MakespanHours)
	}
	if f.RequestCount(opUpdateExpirationForHIT) == 0 {
		t.Error("timed-out HITs were not force-expired")
	}
}

// TestClientExpiryDeterministic: the fake's worker behavior hangs off
// the UniqueRequestToken alone, so a rerun of the same group on a fresh
// fake reproduces the same expiry pattern and the same votes.
func TestClientExpiryDeterministic(t *testing.T) {
	run := func() (map[string]int, int) {
		_, c, _ := newFixture(t, FakeConfig{AbandonPct: 45})
		res, err := c.Run(filterGroup(6, 5))
		if err != nil {
			t.Fatal(err)
		}
		return res.Expired, res.TotalAssignments
	}
	e1, n1 := run()
	e2, n2 := run()
	if n1 != n2 || len(e1) != len(e2) {
		t.Fatalf("reruns diverged: %d/%v vs %d/%v", n1, e1, n2, e2)
	}
	for id, n := range e1 {
		if e2[id] != n {
			t.Errorf("HIT %s expired %d then %d", id, n, e2[id])
		}
	}
}

// TestClientLatePickupNotExpired: a worker who accepts late keeps the
// full assignment window — the client must not declare assignments
// expired at (post time + duration) while GetHIT reports workers still
// in progress. With SubmitDelay 60s and a 150s deadline, several of
// these HITs' second assignments submit only after the deadline; the
// pending check keeps them alive and nothing expires.
func TestClientLatePickupNotExpired(t *testing.T) {
	clock := NewFakeClock(t0)
	f := NewFakeServer(FakeConfig{Clock: clock, SubmitDelay: 60 * time.Second})
	t.Cleanup(f.Close)
	c, err := New(Config{
		Endpoint:           f.URL(),
		AccessKey:          "FAKEKEY",
		SecretKey:          "FAKESECRET",
		Clock:              clock,
		PollInterval:       5 * time.Second,
		AssignmentDuration: 150 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(filterGroup(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Expired) != 0 {
		t.Errorf("late-pickup assignments misreported as expired: %v", res.Expired)
	}
	if res.TotalAssignments != 10*2 {
		t.Errorf("TotalAssignments = %d, want 20", res.TotalAssignments)
	}
}

// TestClientIdempotentRepost: re-posting a group re-sends CreateHIT
// with the same UniqueRequestTokens and the fake (like MTurk) returns
// the existing HITs instead of double-posting.
func TestClientIdempotentRepost(t *testing.T) {
	f, c, _ := newFixture(t, FakeConfig{})
	group := filterGroup(3, 2)
	if _, err := c.Run(group); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(group)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAssignments != 3*2 {
		t.Errorf("idempotent re-run returned %d assignments, want 6", res.TotalAssignments)
	}
	if got := len(f.CreatedHITs()); got != 3 {
		t.Errorf("fake holds %d HITs after re-post, want 3", got)
	}
}

// TestClientRejectsBadCredentials: a wrong secret is refused by the
// fake's signature verification and surfaces as a RequestError.
func TestClientRejectsBadCredentials(t *testing.T) {
	clock := NewFakeClock(t0)
	f := NewFakeServer(FakeConfig{Clock: clock})
	defer f.Close()
	c, err := New(Config{Endpoint: f.URL(), AccessKey: "FAKEKEY", SecretKey: "WRONG", Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(filterGroup(1, 1))
	if err == nil {
		t.Fatal("forged signature accepted")
	}
	var re *RequestError
	if !errors.As(err, &re) || re.Status != 403 {
		t.Errorf("want 403 RequestError, got %v", err)
	}
}

// TestNewRequiresCredentials: no credentials anywhere → constructor
// fails instead of posting unsigned requests.
func TestNewRequiresCredentials(t *testing.T) {
	t.Setenv("AWS_ACCESS_KEY_ID", "")
	t.Setenv("AWS_SECRET_ACCESS_KEY", "")
	if _, err := New(Config{}); err == nil {
		t.Fatal("credential-less client constructed")
	}
}
