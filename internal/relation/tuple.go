package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Tuple is one row: a flat slice of values aligned with a schema.
type Tuple struct {
	schema *Schema
	vals   []Value
}

// NewTuple builds a tuple over schema with the given values.
func NewTuple(schema *Schema, vals ...Value) (Tuple, error) {
	if len(vals) != schema.Len() {
		return Tuple{}, fmt.Errorf("relation: tuple has %d values, schema %s has %d columns",
			len(vals), schema, schema.Len())
	}
	v := make([]Value, len(vals))
	copy(v, vals)
	return Tuple{schema: schema, vals: v}, nil
}

// MustTuple is NewTuple that panics on error; for tests and generators.
func MustTuple(schema *Schema, vals ...Value) Tuple {
	t, err := NewTuple(schema, vals...)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns the tuple's schema.
func (t Tuple) Schema() *Schema { return t.schema }

// Len returns the number of fields.
func (t Tuple) Len() int { return len(t.vals) }

// At returns the i'th value.
func (t Tuple) At(i int) Value { return t.vals[i] }

// Get returns the value of the named column; the second result reports
// whether the column exists.
func (t Tuple) Get(name string) (Value, bool) {
	i := t.schema.Ordinal(name)
	if i < 0 {
		return Null(), false
	}
	return t.vals[i], true
}

// MustGet returns the named value or panics; for code paths where the
// planner has already validated the column.
func (t Tuple) MustGet(name string) Value {
	v, ok := t.Get(name)
	if !ok {
		panic(fmt.Sprintf("relation: no column %q in %s", name, t.schema))
	}
	return v
}

// With returns a copy of the tuple with column name set to v.
func (t Tuple) With(name string, v Value) (Tuple, error) {
	i := t.schema.Ordinal(name)
	if i < 0 {
		return Tuple{}, fmt.Errorf("relation: no column %q in %s", name, t.schema)
	}
	vals := make([]Value, len(t.vals))
	copy(vals, t.vals)
	vals[i] = v
	return Tuple{schema: t.schema, vals: vals}, nil
}

// Project returns a new tuple containing only the named columns.
func (t Tuple) Project(out *Schema, ordinals []int) Tuple {
	vals := make([]Value, len(ordinals))
	for i, ord := range ordinals {
		vals[i] = t.vals[ord]
	}
	return Tuple{schema: out, vals: vals}
}

// Concat joins two tuples under a combined schema (for join results).
func (t Tuple) Concat(o Tuple, combined *Schema) Tuple {
	vals := make([]Value, 0, len(t.vals)+len(o.vals))
	vals = append(vals, t.vals...)
	vals = append(vals, o.vals...)
	return Tuple{schema: combined, vals: vals}
}

// Rebind returns the same values under a different (equal-arity) schema.
func (t Tuple) Rebind(s *Schema) (Tuple, error) {
	if s.Len() != len(t.vals) {
		return Tuple{}, fmt.Errorf("relation: rebind arity mismatch: %d values vs schema %s", len(t.vals), s)
	}
	return Tuple{schema: s, vals: t.vals}, nil
}

// Key returns a stable positional content hash of the tuple: the
// within-run identity of a row (join pair keys, build-side digests).
// The byte sequence hashed — (kind byte, String() bytes, NUL) per value
// under FNV-1a — is load-bearing: WAL checkpoint digests, the answer
// store, and spill digests all embed these values, so the manual fold
// below must stay byte-identical to the original hash/fnv version.
func (t Tuple) Key() uint64 {
	h := uint64(fnvOffset64)
	for _, v := range t.vals {
		h = v.hashInto(h)
	}
	return h
}

// CanonicalKey returns a content hash that is independent of column
// order and of query-specific alias qualifiers: each (column, value)
// pair is hashed as (base column name, value kind, value text), with
// the pairs sorted lexicographically before hashing. Two tuples that
// carry the same named content — even if one query projected the
// columns in a different order or under a different table alias —
// produce the same key. The cross-query answer store keys on this so
// identical questions asked by different queries share crowd votes;
// the positional Key above stays as-is for within-run identity.
func (t Tuple) CanonicalKey() uint64 {
	parts := make([]string, len(t.vals))
	for i, v := range t.vals {
		name := ""
		if t.schema != nil && i < t.schema.Len() {
			name = strings.ToLower(t.schema.Column(i).Name)
			if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
				name = name[dot+1:]
			}
		}
		parts[i] = name + "\x00" + string([]byte{byte(v.kind)}) + "\x00" + v.String()
	}
	sort.Strings(parts)
	h := uint64(fnvOffset64)
	for _, p := range parts {
		h = fnvString(h, p)
		h = fnvByte(h, 0xff)
	}
	return h
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t.vals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports deep equality of two tuples (strict: UNKNOWN != value).
func (t Tuple) Equal(o Tuple) bool {
	if len(t.vals) != len(o.vals) {
		return false
	}
	for i := range t.vals {
		if !t.vals[i].StrictEqual(o.vals[i]) {
			return false
		}
	}
	return true
}
