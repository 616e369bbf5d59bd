// The join's build side materializes through one code path, a
// spill.Table capped at Options.BreakerMemTuples. At cap 0 every tuple
// stays in memory and no file is written; a positive cap spills full
// partitions to temporary run files (internal/spill). Rows and the
// checkpoint digest are identical at any cap.
package exec

import (
	"context"

	"qurk/internal/relation"
	"qurk/internal/spill"
)

// buildTable is the join's materialized build side. Row is
// error-latching so the join's tight pair loops stay simple; callers
// surface Err once per step. Digest fingerprints the rows in append
// order without re-reading spilled partitions.
type buildTable struct {
	*spill.Table
	err error
}

// drainBuildTable materializes op, spilling past cap tuples when cap
// is positive.
func drainBuildTable(ctx context.Context, op Operator, cap int) (*buildTable, float64, error) {
	sp := spill.NewTable(op.Name(), op.Schema(), cap)
	ready, err := drainEach(ctx, op, sp.Append)
	if err != nil {
		sp.Close()
		return nil, 0, err
	}
	return &buildTable{Table: sp}, ready, nil
}

// Row returns tuple i; spill read errors latch into Err.
func (b *buildTable) Row(i int) relation.Tuple {
	t, err := b.Table.Row(i)
	if err != nil && b.err == nil {
		b.err = err
	}
	return t
}

// Err reports the first spill read error, if any.
func (b *buildTable) Err() error { return b.err }
