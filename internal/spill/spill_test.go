package spill

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"qurk/internal/relation"
)

func testSchema(t *testing.T) *relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "s", Kind: relation.KindText},
		relation.Column{Name: "f", Kind: relation.KindFloat},
		relation.Column{Name: "b", Kind: relation.KindBool},
		relation.Column{Name: "u", Kind: relation.KindURL},
	)
}

func testTuple(t *testing.T, s *relation.Schema, i int) relation.Tuple {
	t.Helper()
	return relation.MustTuple(s,
		relation.Int(int64(i%7)),
		relation.Text(fmt.Sprintf("row-%03d", i)),
		relation.Float(float64(i)*0.3333333333333333),
		relation.Bool(i%2 == 0),
		relation.URL(fmt.Sprintf("http://x/%d.jpg", i)),
	)
}

// TestCodecRoundtrip: every value kind survives the run-file codec
// bit-exactly, including floats and the UNKNOWN sentinel.
func TestCodecRoundtrip(t *testing.T) {
	s := relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindText},
		relation.Column{Name: "b", Kind: relation.KindInt},
		relation.Column{Name: "c", Kind: relation.KindFloat},
		relation.Column{Name: "d", Kind: relation.KindBool},
		relation.Column{Name: "e", Kind: relation.KindURL},
		relation.Column{Name: "f", Kind: relation.KindText},
	)
	in := relation.MustTuple(s,
		relation.Text("héllo\nworld"),
		relation.Int(-1<<62),
		relation.Float(1.0/3.0),
		relation.Bool(true),
		relation.URL("http://img/1.jpg"),
		relation.Unknown(),
	)
	var buf bytes.Buffer
	fw, err := newFrameWriter(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.add(in); err != nil {
		t.Fatal(err)
	}
	if err := fw.finish(); err != nil {
		t.Fatal(err)
	}
	fr, err := newFrameReader(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	out, ok, err := fr.next()
	if err != nil || !ok {
		t.Fatalf("next: ok=%v err=%v", ok, err)
	}
	if !in.Equal(out) {
		t.Errorf("roundtrip mismatch:\n in=%v\nout=%v", in, out)
	}
	if !out.At(5).IsUnknown() {
		t.Error("UNKNOWN sentinel lost in roundtrip")
	}
	if _, ok, err := fr.next(); ok || err != nil {
		t.Fatalf("expected clean end of stream, got ok=%v err=%v", ok, err)
	}
}

// TestSorterMatchesSliceStable: the external sort is bit-identical to
// sort.SliceStable over the same input — including duplicate keys,
// whose input order must survive the k-way merge's run tie-breaks.
func TestSorterMatchesSliceStable(t *testing.T) {
	s := testSchema(t)
	less := func(a, b relation.Tuple) bool { return a.MustGet("k").Int() < b.MustGet("k").Int() }
	for _, n := range []int{0, 1, 5, 64, 257} {
		for _, cap := range []int{1, 3, 64} {
			rng := rand.New(rand.NewSource(int64(n*100 + cap)))
			var want []relation.Tuple
			sorter := NewSorter(s, cap, less)
			for i := 0; i < n; i++ {
				tp := testTuple(t, s, rng.Intn(50))
				want = append(want, tp)
				if err := sorter.Add(tp); err != nil {
					t.Fatal(err)
				}
			}
			sort.SliceStable(want, func(i, j int) bool { return less(want[i], want[j]) })
			it, err := sorter.Sort()
			if err != nil {
				t.Fatal(err)
			}
			var got []relation.Tuple
			for {
				tp, ok, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				got = append(got, tp)
			}
			it.Close()
			sorter.Close()
			if len(got) != len(want) {
				t.Fatalf("n=%d cap=%d: %d tuples out, want %d", n, cap, len(got), len(want))
			}
			for i := range want {
				if !want[i].Equal(got[i]) {
					t.Fatalf("n=%d cap=%d: row %d = %v, want %v", n, cap, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCapZeroNeverSpills: at cap 0 the Sorter keeps its input as one
// in-memory run and the Table as one partition, so no temporary
// directory is created; the Sorter still returns sort.SliceStable's
// order and the Table the input rows.
func TestCapZeroNeverSpills(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	s := testSchema(t)
	less := func(a, b relation.Tuple) bool { return a.MustGet("k").Int() < b.MustGet("k").Int() }
	sorter := NewSorter(s, 0, less)
	defer sorter.Close()
	tb := NewTable("t", s, 0)
	defer tb.Close()
	rng := rand.New(rand.NewSource(9))
	var in []relation.Tuple
	for i := 0; i < 300; i++ {
		tp := testTuple(t, s, rng.Intn(50))
		in = append(in, tp)
		if err := sorter.Add(tp); err != nil {
			t.Fatal(err)
		}
		if err := tb.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range in {
		got, err := tb.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Fatalf("table row %d = %v, want %v", i, got, want)
		}
	}
	want := append([]relation.Tuple(nil), in...)
	sort.SliceStable(want, func(i, j int) bool { return less(want[i], want[j]) })
	it, err := sorter.Sort()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for i := 0; ; i++ {
		got, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(want) {
				t.Fatalf("sorter returned %d tuples, want %d", i, len(want))
			}
			break
		}
		if !want[i].Equal(got) {
			t.Fatalf("sorted row %d = %v, want %v", i, got, want[i])
		}
	}
	if entries, err := os.ReadDir(tmp); err != nil || len(entries) != 0 {
		t.Errorf("cap 0 wrote to the temporary directory: %v (err %v)", entries, err)
	}
	if sorter.dir != "" || tb.dir != "" {
		t.Errorf("cap 0 created spill directories %q and %q", sorter.dir, tb.dir)
	}
}

// TestTableSequentialAndRandomAccess: partitioned rows read back
// identically in sequential scans and after partition switches.
func TestTableSequentialAndRandomAccess(t *testing.T) {
	s := testSchema(t)
	tb := NewTable("t", s, 4)
	defer tb.Close()
	const n = 23
	var want []relation.Tuple
	for i := 0; i < n; i++ {
		tp := testTuple(t, s, i)
		want = append(want, tp)
		if err := tb.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	// Two full sequential scans (the join re-scans its build side).
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			got, err := tb.Row(i)
			if err != nil {
				t.Fatal(err)
			}
			if !want[i].Equal(got) {
				t.Fatalf("pass %d row %d = %v, want %v", pass, i, got, want[i])
			}
		}
	}
	// Partition-hopping access.
	for _, i := range []int{22, 0, 13, 5, 21, 4, 3} {
		got, err := tb.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		if !want[i].Equal(got) {
			t.Fatalf("random row %d = %v, want %v", i, got, want[i])
		}
	}
}
