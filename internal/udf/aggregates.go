package udf

import (
	"fmt"

	"probpred/internal/engine"
	"probpred/internal/query"
)

// Aggregation and tracking UDFs for the query shapes of §2 beyond plain
// selection: Q2 ("average car volume on each lane" — grouping and
// aggregation) and Q4 ("cars seen in camera C1 and then in C2" — a custom
// join over two filtered streams).

// CountReducer is a Reducer that groups rows by a key column and emits one
// row per group with the group key and its row count.
type CountReducer struct {
	// KeyCol is the grouping column.
	KeyCol string
	// OutCol names the count column. Empty selects "count".
	OutCol string
	// CostMS is the virtual per-input-row cost. Zero selects 0.5.
	CostMS float64
}

// Name implements engine.Reducer.
func (c CountReducer) Name() string { return "Count[" + c.KeyCol + "]" }

// Cost implements engine.Reducer.
func (c CountReducer) Cost() float64 {
	if c.CostMS == 0 {
		return 0.5
	}
	return c.CostMS
}

// Key implements engine.Reducer.
func (c CountReducer) Key(r engine.Row) (string, error) {
	v, err := r.Get(c.KeyCol)
	if err != nil {
		return "", err
	}
	return v.String(), nil
}

// Reduce implements engine.Reducer.
func (c CountReducer) Reduce(key string, rows []engine.Row) ([]engine.Row, error) {
	out := c.OutCol
	if out == "" {
		out = "count"
	}
	return []engine.Row{engine.Row{}.
		With(c.KeyCol, query.Str(key)).
		With(out, query.Number(float64(len(rows))))}, nil
}

// AvgReducer groups rows by KeyCol and averages the numeric ValCol.
type AvgReducer struct {
	KeyCol, ValCol string
	// OutCol names the average column. Empty selects "avg_"+ValCol.
	OutCol string
	// CostMS is the virtual per-input-row cost. Zero selects 0.5.
	CostMS float64
}

// Name implements engine.Reducer.
func (a AvgReducer) Name() string { return fmt.Sprintf("Avg[%s by %s]", a.ValCol, a.KeyCol) }

// Cost implements engine.Reducer.
func (a AvgReducer) Cost() float64 {
	if a.CostMS == 0 {
		return 0.5
	}
	return a.CostMS
}

// Key implements engine.Reducer.
func (a AvgReducer) Key(r engine.Row) (string, error) {
	v, err := r.Get(a.KeyCol)
	if err != nil {
		return "", err
	}
	return v.String(), nil
}

// Reduce implements engine.Reducer.
func (a AvgReducer) Reduce(key string, rows []engine.Row) ([]engine.Row, error) {
	sum := 0.0
	for _, r := range rows {
		v, err := r.Get(a.ValCol)
		if err != nil {
			return nil, err
		}
		if !v.IsNum {
			return nil, fmt.Errorf("udf: Avg over non-numeric column %q", a.ValCol)
		}
		sum += v.Num
	}
	out := a.OutCol
	if out == "" {
		out = "avg_" + a.ValCol
	}
	return []engine.Row{engine.Row{}.
		With(a.KeyCol, query.Str(key)).
		With(out, query.Number(sum/float64(len(rows))))}, nil
}

// SequenceCombiner is a Combiner implementing the Q4 pattern: for rows keyed
// by an entity (e.g. a vehicle identity), emit one row per entity that
// appears on the left side (camera C1) strictly before it appears on the
// right side (camera C2), comparing a numeric time column.
type SequenceCombiner struct {
	// TimeCol is the numeric ordering column present on both sides.
	TimeCol string
	// CostMS is the virtual cost per input row pair considered. Zero
	// selects 0.2.
	CostMS float64
}

// Name implements engine.Combiner.
func (s SequenceCombiner) Name() string { return "SeenThen[" + s.TimeCol + "]" }

// Cost implements engine.Combiner.
func (s SequenceCombiner) Cost() float64 {
	if s.CostMS == 0 {
		return 0.2
	}
	return s.CostMS
}

// Combine implements engine.Combiner: it emits the left row of the earliest
// left-then-right pair for the entity, annotated with both times.
func (s SequenceCombiner) Combine(key string, left, right []engine.Row) ([]engine.Row, error) {
	minLeft, err := minTime(left, s.TimeCol)
	if err != nil {
		return nil, err
	}
	maxRight, err := maxTime(right, s.TimeCol)
	if err != nil {
		return nil, err
	}
	if minLeft >= maxRight {
		return nil, nil // never seen left strictly before right
	}
	out := left[0].With("firstSeen", query.Number(minLeft))
	out = out.With("thenSeen", query.Number(maxRight))
	return []engine.Row{out}, nil
}

func minTime(rows []engine.Row, col string) (float64, error) {
	best := 0.0
	for i, r := range rows {
		v, err := r.Get(col)
		if err != nil {
			return 0, err
		}
		if !v.IsNum {
			return 0, fmt.Errorf("udf: sequence over non-numeric column %q", col)
		}
		if i == 0 || v.Num < best {
			best = v.Num
		}
	}
	return best, nil
}

func maxTime(rows []engine.Row, col string) (float64, error) {
	best := 0.0
	for i, r := range rows {
		v, err := r.Get(col)
		if err != nil {
			return 0, err
		}
		if !v.IsNum {
			return 0, fmt.Errorf("udf: sequence over non-numeric column %q", col)
		}
		if i == 0 || v.Num > best {
			best = v.Num
		}
	}
	return best, nil
}
