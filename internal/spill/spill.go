// Package spill is the one materialization path of the executor's
// sorts and of the join's build side: relations larger than a
// configured tuple cap are written to temporary run files (binary,
// CRC-framed — see codec.go) and read back either partition by
// partition (Table — the join's build side) or as a k-way stable merge
// of sorted runs (Sorter — ORDER BY and group partitioning). A cap of
// 0 or less never spills: everything stays in one in-memory run, and
// no temporary directory or run file is created. Everything is
// stdlib-only and deterministic: run boundaries are count-based and
// merges tie-break by run index, so the output is bit-identical at any
// cap.
package spill

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"qurk/internal/relation"
)

// runPath names run file seq in dir.
func runPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("run%05d.qrun", seq))
}

// writeRun writes tuples to a new binary run file in dir.
func writeRun(dir string, seq int, schema *relation.Schema, tuples []relation.Tuple) (string, error) {
	path := runPath(dir, seq)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fw, err := newFrameWriter(w, schema)
	if err != nil {
		f.Close()
		return "", err
	}
	for _, t := range tuples {
		if err := fw.add(t); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := fw.finish(); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// runReader streams one run file tuple by tuple.
type runReader struct {
	f  *os.File
	fr *frameReader
}

func openRun(path string, schema *relation.Schema) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fr, err := newFrameReader(f, schema)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &runReader{f: f, fr: fr}, nil
}

// next returns the run's next tuple, or ok=false at end of run.
func (r *runReader) next() (relation.Tuple, bool, error) {
	return r.fr.next()
}

func (r *runReader) close() error { return r.f.Close() }

// tempDir creates the spill scratch directory on first use.
func tempDir(current *string) (string, error) {
	if *current != "" {
		return *current, nil
	}
	dir, err := os.MkdirTemp("", "qurk-spill-")
	if err != nil {
		return "", err
	}
	*current = dir
	return dir, nil
}

// --- Digest: order-sensitive state fingerprint ---

// digestMix folds one tuple key into a running order-sensitive
// fingerprint (FNV-1a step over the key's bytes, conceptually). Table
// exposes the running value so the join can checkpoint its build side
// into a write-ahead journal without a second pass over spilled runs.
func digestMix(dig, key uint64) uint64 {
	const prime64 = 1099511628211
	if dig == 0 {
		dig = 14695981039346656037 // FNV offset basis
	}
	for i := 0; i < 8; i++ {
		dig ^= (key >> (8 * i)) & 0xff
		dig *= prime64
	}
	return dig
}

// --- Table: partitioned append-only store (join build side) ---

// Table is an append-only tuple store holding at most cap tuples in
// memory; full partitions spill to disk and are reloaded one at a time
// on access. Sequential scans (the join's repeated build-side passes)
// therefore run in O(cap) memory. With cap <= 0 every tuple stays in
// memory.
type Table struct {
	name   string
	schema *relation.Schema
	cap    int
	dir    string
	parts  []string // spilled partition files, cap tuples each
	tail   []relation.Tuple
	total  int
	loaded int // index of the cached partition; -1 = none
	cache  []relation.Tuple
	dig    uint64 // running append-order fingerprint
}

// NewTable builds a table spilling past cap tuples; cap <= 0 never
// spills and writes no file.
func NewTable(name string, schema *relation.Schema, cap int) *Table {
	return &Table{name: name, schema: schema, cap: cap, loaded: -1}
}

// Name reports the relation name.
func (t *Table) Name() string { return t.name }

// Schema reports the tuple schema.
func (t *Table) Schema() *relation.Schema { return t.schema }

// Len is the total tuple count (in memory and spilled).
func (t *Table) Len() int { return t.total }

// Digest is an order-sensitive fingerprint of every tuple appended so
// far; durable runs checkpoint it at pipeline breakers.
func (t *Table) Digest() uint64 { return t.dig }

// Append adds one tuple, spilling the in-memory partition when full.
func (t *Table) Append(tp relation.Tuple) error {
	t.tail = append(t.tail, tp)
	t.total++
	t.dig = digestMix(t.dig, tp.Key())
	if t.cap <= 0 || len(t.tail) < t.cap {
		return nil
	}
	dir, err := tempDir(&t.dir)
	if err != nil {
		return err
	}
	path, err := writeRun(dir, len(t.parts), t.schema, t.tail)
	if err != nil {
		return err
	}
	t.parts = append(t.parts, path)
	t.tail = nil
	return nil
}

// Row returns tuple i. Access is optimized for sequential scans: the
// partition holding i stays cached until a different one is touched.
func (t *Table) Row(i int) (relation.Tuple, error) {
	if spilled := len(t.parts) * t.cap; i >= spilled {
		return t.tail[i-spilled], nil
	}
	part := i / t.cap
	if t.loaded != part {
		r, err := openRun(t.parts[part], t.schema)
		if err != nil {
			return relation.Tuple{}, err
		}
		defer r.close()
		cache := make([]relation.Tuple, 0, t.cap)
		for {
			tp, ok, err := r.next()
			if err != nil {
				return relation.Tuple{}, err
			}
			if !ok {
				break
			}
			cache = append(cache, tp)
		}
		t.loaded, t.cache = part, cache
	}
	return t.cache[i-part*t.cap], nil
}

// Close removes the spill files.
func (t *Table) Close() {
	if t.dir != "" {
		os.RemoveAll(t.dir)
		t.dir = ""
	}
	t.parts, t.tail, t.cache, t.loaded = nil, nil, nil, -1
}

// --- Sorter: external stable merge sort ---

// mergeFanIn caps how many run files one merge pass holds open at
// once; more runs than this compact level by level first, keeping the
// open-file count bounded regardless of input size and cap.
const mergeFanIn = 64

// Sorter accumulates tuples and emits them sorted by a caller-supplied
// less function, holding at most cap tuples in memory: full runs are
// stable-sorted and spilled, then merged k-way with ties broken by run
// order — so the output is bit-identical to sort.SliceStable over the
// whole input. With cap <= 0 the input is one in-memory run.
type Sorter struct {
	schema *relation.Schema
	cap    int
	less   func(a, b relation.Tuple) bool
	dir    string
	runs   []string
	runSeq int
	mem    []relation.Tuple
}

// NewSorter builds a sorter spilling runs past cap tuples; cap <= 0
// never spills and writes no file.
func NewSorter(schema *relation.Schema, cap int, less func(a, b relation.Tuple) bool) *Sorter {
	return &Sorter{schema: schema, cap: cap, less: less}
}

// Add accepts one tuple in input order.
func (s *Sorter) Add(t relation.Tuple) error {
	s.mem = append(s.mem, t)
	if s.cap <= 0 || len(s.mem) < s.cap {
		return nil
	}
	return s.spillRun()
}

func (s *Sorter) spillRun() error {
	sort.SliceStable(s.mem, func(i, j int) bool { return s.less(s.mem[i], s.mem[j]) })
	dir, err := tempDir(&s.dir)
	if err != nil {
		return err
	}
	s.runSeq++
	path, err := writeRun(dir, s.runSeq, s.schema, s.mem)
	if err != nil {
		return err
	}
	s.runs = append(s.runs, path)
	s.mem = nil
	return nil
}

// openMerge builds a merge iterator over the given run files.
func (s *Sorter) openMerge(paths []string, tail []relation.Tuple) (*Iter, error) {
	it := &Iter{less: s.less}
	for _, path := range paths {
		r, err := openRun(path, s.schema)
		if err != nil {
			it.Close()
			return nil, err
		}
		it.runs = append(it.runs, r)
	}
	it.tail = tail
	if err := it.init(); err != nil {
		it.Close()
		return nil, err
	}
	return it, nil
}

// compact merges runs level by level until at most mergeFanIn remain,
// so the final merge never holds more than mergeFanIn files open.
// Adjacent runs hold adjacent input segments, and merges tie-break by
// run order, so stability is preserved across levels.
func (s *Sorter) compact() error {
	for len(s.runs) > mergeFanIn {
		var next []string
		for start := 0; start < len(s.runs); start += mergeFanIn {
			group := s.runs[start:min(start+mergeFanIn, len(s.runs))]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			it, err := s.openMerge(group, nil)
			if err != nil {
				return err
			}
			s.runSeq++
			path := runPath(s.dir, s.runSeq)
			f, err := os.Create(path)
			if err != nil {
				it.Close()
				return err
			}
			w := bufio.NewWriter(f)
			fw, err := newFrameWriter(w, s.schema)
			if err != nil {
				it.Close()
				f.Close()
				return err
			}
			for {
				t, ok, err := it.Next()
				if err == nil && ok {
					err = fw.add(t)
				}
				if err != nil {
					it.Close()
					f.Close()
					return err
				}
				if !ok {
					break
				}
			}
			it.Close()
			if err := fw.finish(); err != nil {
				f.Close()
				return err
			}
			if err := w.Flush(); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			for _, old := range group {
				os.Remove(old)
			}
			next = append(next, path)
		}
		s.runs = next
	}
	return nil
}

// Sort finishes input and returns the merged sorted iterator. The
// sorter must not be Added to afterwards; Close releases the files.
func (s *Sorter) Sort() (*Iter, error) {
	sort.SliceStable(s.mem, func(i, j int) bool { return s.less(s.mem[i], s.mem[j]) })
	if err := s.compact(); err != nil {
		return nil, err
	}
	// The in-memory tail holds the latest input, so it merges as the
	// last run (ties resolve to earlier runs — stability).
	return s.openMerge(s.runs, s.mem)
}

// Close removes the spill files.
func (s *Sorter) Close() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
	s.mem, s.runs = nil, nil
}

// Iter is the sorted output stream of a Sorter: a k-way heap merge
// over the spilled runs plus the in-memory tail.
type Iter struct {
	less  func(a, b relation.Tuple) bool
	runs  []*runReader
	tail  []relation.Tuple
	tailI int
	heap  []heapItem
}

type heapItem struct {
	t   relation.Tuple
	run int // run index; len(runs) = the in-memory tail
}

func (it *Iter) init() error {
	for i := range it.runs {
		if err := it.push(i); err != nil {
			return err
		}
	}
	if it.tailI < len(it.tail) {
		it.heapPush(heapItem{t: it.tail[it.tailI], run: len(it.runs)})
		it.tailI++
	}
	return nil
}

// push reads run i's next tuple onto the heap.
func (it *Iter) push(i int) error {
	t, ok, err := it.runs[i].next()
	if err != nil {
		return err
	}
	if ok {
		it.heapPush(heapItem{t: t, run: i})
	}
	return nil
}

// before orders heap items: by less, ties by run index (stability).
func (it *Iter) before(a, b heapItem) bool {
	if it.less(a.t, b.t) {
		return true
	}
	if it.less(b.t, a.t) {
		return false
	}
	return a.run < b.run
}

func (it *Iter) heapPush(h heapItem) {
	it.heap = append(it.heap, h)
	i := len(it.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.before(it.heap[i], it.heap[parent]) {
			break
		}
		it.heap[i], it.heap[parent] = it.heap[parent], it.heap[i]
		i = parent
	}
}

func (it *Iter) heapPop() heapItem {
	top := it.heap[0]
	last := len(it.heap) - 1
	it.heap[0] = it.heap[last]
	it.heap = it.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(it.heap) && it.before(it.heap[l], it.heap[smallest]) {
			smallest = l
		}
		if r < len(it.heap) && it.before(it.heap[r], it.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		it.heap[i], it.heap[smallest] = it.heap[smallest], it.heap[i]
		i = smallest
	}
}

// Next returns the next tuple in sorted order, or ok=false at the end.
func (it *Iter) Next() (relation.Tuple, bool, error) {
	if len(it.heap) == 0 {
		return relation.Tuple{}, false, nil
	}
	top := it.heapPop()
	if top.run < len(it.runs) {
		if err := it.push(top.run); err != nil {
			return relation.Tuple{}, false, err
		}
	} else if it.tailI < len(it.tail) {
		it.heapPush(heapItem{t: it.tail[it.tailI], run: len(it.runs)})
		it.tailI++
	}
	return top.t, true, nil
}

// Close closes the run readers (files are removed by Sorter.Close).
func (it *Iter) Close() {
	for _, r := range it.runs {
		if r != nil {
			r.close()
		}
	}
	it.runs = nil
}
