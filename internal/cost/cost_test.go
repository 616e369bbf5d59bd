package cost

import (
	"math"
	"strings"
	"testing"
)

func TestDollars(t *testing.T) {
	// Paper §3.3.2: 900 comparisons × 10 assignments × $0.015 = $135.
	if got := Dollars(900, 10); math.Abs(got-135) > 1e-9 {
		t.Errorf("Dollars(900,10) = %v, want 135", got)
	}
	// §3.3.4: unfiltered join at 5 assignments = $67.50.
	if got := Dollars(900, 5); math.Abs(got-67.5) > 1e-9 {
		t.Errorf("Dollars(900,5) = %v, want 67.50", got)
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger()
	l.Add("join", 900, 5)
	l.Add("extract", 16, 5)
	if l.TotalHITs() != 916 {
		t.Errorf("hits = %d", l.TotalHITs())
	}
	want := Dollars(900, 5) + Dollars(16, 5)
	if math.Abs(l.TotalDollars()-want) > 1e-9 {
		t.Errorf("dollars = %v, want %v", l.TotalDollars(), want)
	}
	rep := l.Report()
	for _, s := range []string{"join", "extract", "TOTAL", "916"} {
		if !strings.Contains(rep, s) {
			t.Errorf("report missing %q:\n%s", s, rep)
		}
	}
	if len(l.Entries()) != 2 {
		t.Errorf("entries = %d", len(l.Entries()))
	}
}

func TestDollarsForSumsInEntryOrder(t *testing.T) {
	l := NewLedger()
	for i := 0; i < 50; i++ {
		l.Add("q1", 1+i%7, 3)
		l.Add("q2", 2, 5)
	}
	// The same loop the per-label sum replaced, so the float is
	// bit-identical to what tenants are billed per query.
	var want float64
	for _, e := range l.Entries() {
		if e.Label == "q1" {
			want += e.Dollars()
		}
	}
	if got := l.DollarsFor("q1"); got != want {
		t.Errorf("DollarsFor(q1) = %v, want %v", got, want)
	}
	if got := l.DollarsFor("absent"); got != 0 {
		t.Errorf("DollarsFor(absent) = %v, want 0", got)
	}
}
