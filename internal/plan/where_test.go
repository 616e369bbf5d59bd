package plan

import (
	"fmt"
	"strings"
	"testing"
)

// TestPlanWhereOnJoinedTable: a WHERE conjunct naming a joined table
// sits directly above the join that binds it — not over the FROM scan,
// where its column does not exist — while conjuncts naming only the
// FROM table stay over the scan. A crowd filter moved above a join
// reads the named table's column, not an ambiguous bare one.
func TestPlanWhereOnJoinedTable(t *testing.T) {
	const from = `SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img) `
	t.Run("machine", func(t *testing.T) {
		mf, ok := mustPlan(t, from+`WHERE p.id >= 5`).(*Project).Input.(*MachineFilter)
		if !ok {
			t.Fatal("no machine filter under the projection")
		}
		if _, ok := mf.Input.(*CrowdJoin); !ok {
			t.Errorf("p.id >= 5 sits over %T, want the join", mf.Input)
		}
	})
	t.Run("crowd", func(t *testing.T) {
		cf, ok := mustPlan(t, from+`WHERE isFemale(p.img)`).(*Project).Input.(*CrowdFilter)
		if !ok {
			t.Fatal("no crowd filter under the projection")
		}
		if _, ok := cf.Input.(*CrowdJoin); !ok {
			t.Errorf("isFemale(p.img) sits over %T, want the join", cf.Input)
		}
		if got := strings.Join(cf.Task.Prompt.Fields, ","); got != "p.img" {
			t.Errorf("prompt fields = %s, want p.img", got)
		}
	})
	t.Run("mixed", func(t *testing.T) {
		mf, ok := mustPlan(t, from+`WHERE isFemale(c.img) AND p.id >= 5`).(*Project).Input.(*MachineFilter)
		if !ok {
			t.Fatal("no machine filter under the projection")
		}
		cj, ok := mf.Input.(*CrowdJoin)
		if !ok {
			t.Fatalf("p.id >= 5 sits over %T, want the join", mf.Input)
		}
		cf, ok := cj.Left.(*CrowdFilter)
		if !ok {
			t.Fatalf("join probe side = %T, want isFemale(c.img) over the scan", cj.Left)
		}
		if _, ok := cf.Input.(*Scan); !ok || strings.Join(cf.Task.Prompt.Fields, ",") != "img" {
			t.Errorf("isFemale(c.img) over %T with fields %v; want the scan and an unchanged task", cf.Input, cf.Task.Prompt.Fields)
		}
	})
	t.Run("three-way", func(t *testing.T) {
		node := mustPlan(t, `SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img)
			JOIN photos q ON samePerson(c.img, q.img) WHERE p.id >= 5`)
		top, ok := node.(*Project).Input.(*CrowdJoin)
		if !ok {
			t.Fatalf("root input = %T, want the outer join", node.(*Project).Input)
		}
		mf, ok := top.Left.(*MachineFilter)
		if !ok {
			t.Fatalf("outer join probe side = %T, want p.id >= 5 over the inner join", top.Left)
		}
		if _, ok := mf.Input.(*CrowdJoin); !ok {
			t.Errorf("p.id >= 5 sits over %T, want the inner join", mf.Input)
		}
	})
	if err := unboundQualifier(mustPlan(t, from+`WHERE p.id >= 5 AND isFemale(p.img)`)); err != nil {
		t.Error(err)
	}
}

// fuzzLib is testLib with the filter bound through a formal parameter,
// so a filter's prompt fields name the table its call names.
func fuzzLib() lib {
	l := testLib()
	e := l["isfemale"]
	e.params = []string{"img"}
	l["isfemale"] = e
	return l
}

// FuzzBuildQuery: the planner never panics, and in every plan it
// builds each filter reads only columns of tables bound by a scan
// below it.
func FuzzBuildQuery(f *testing.F) {
	for _, q := range []string{
		`SELECT name FROM celeb c WHERE isFemale(c.img)`,
		`SELECT c.name FROM celeb AS c WHERE isFemale(c.img) AND c.id > 3`,
		`SELECT c.name FROM celeb c WHERE isFemale(c.img) OR NOT isFemale(c.img)`,
		`SELECT c.name FROM celeb c WHERE isFemale(c.img) AND NOT isFemale(c.img)`,
		`SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img)`,
		`SELECT c.name, p.img FROM celeb c JOIN photos p ON samePerson(c.img, p.img) AND POSSIBLY gender(c.img) = gender(p.img)`,
		`SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img) AND POSSIBLY gender(c.img) = gender(p.img) AND POSSIBLY hairColor(c.img) = hairColor(p.img) AND POSSIBLY skinColor(c.img) = skinColor(p.img)`,
		`SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img) WHERE isFemale(c.img)`,
		`SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img) WHERE p.id >= 5`,
		`SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img) WHERE isFemale(p.img) AND c.name <> "x"`,
		`SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img) JOIN photos q ON samePerson(c.img, q.img) WHERE q.id < 3 OR p.id > 2`,
		`SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img) AND POSSIBLY gender(c.img) = gender(p.img) ORDER BY c.name`,
		`SELECT label FROM squares ORDER BY sorter(img)`,
		`SELECT label FROM squares ORDER BY sorter(img) LIMIT 3`,
		`SELECT label FROM squares s ORDER BY s.label, sorter(s.img) DESC`,
		`SELECT name, animalInfo(img).size FROM animals`,
		`SELECT m.title FROM movies m JOIN scenes s ON inScene(m.img, s.img) AND POSSIBLY numInScene(s.img) > 1 ORDER BY quality(s.img)`,
		`SELECT * FROM celeb WHERE isFemale(celeb) LIMIT 2`,
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		node, err := BuildQuery(src, fuzzLib())
		if err != nil {
			return
		}
		if err := unboundQualifier(node); err != nil {
			t.Fatalf("%s\n%s", src, err)
		}
	})
}

// unboundQualifier returns an error naming the first filter that reads
// a column qualified by a table the plan scans, but not below it.
func unboundQualifier(root Node) error {
	all := scanBindings(root, map[string]bool{})
	var visit func(n Node) error
	visit = func(n Node) error {
		var quals []string
		switch t := n.(type) {
		case *MachineFilter:
			quals = qualifiers(t.Expr, nil)
		case *CrowdFilter:
			quals = fieldQualifiers(t.Task.Prompt.Fields)
		case *CrowdFilterOr:
			for _, b := range t.Branches {
				quals = append(quals, fieldQualifiers(b.Prompt.Fields)...)
			}
		}
		if len(quals) > 0 {
			below := scanBindings(n.Children()[0], map[string]bool{})
			for _, q := range quals {
				if q = strings.ToLower(q); all[q] && !below[q] {
					return fmt.Errorf("%s reads %q, which no scan below it binds", n.Label(), q)
				}
			}
		}
		for _, c := range n.Children() {
			if err := visit(c); err != nil {
				return err
			}
		}
		return nil
	}
	return visit(root)
}

// scanBindings adds every scan's binding and table name under n.
func scanBindings(n Node, into map[string]bool) map[string]bool {
	if s, ok := n.(*Scan); ok {
		into[strings.ToLower(s.Binding())] = true
		into[strings.ToLower(s.Table)] = true
	}
	for _, c := range n.Children() {
		scanBindings(c, into)
	}
	return into
}

// fieldQualifiers returns the table qualifiers of qualified columns.
func fieldQualifiers(fields []string) []string {
	var out []string
	for _, f := range fields {
		if dot := strings.LastIndexByte(f, '.'); dot > 0 {
			out = append(out, f[:dot])
		}
	}
	return out
}
