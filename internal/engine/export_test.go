package engine

// ApplyOneRaw applies p once to the one row r, outside the row stage, and
// reports what the call wrote without making a row: the columns it added, in
// the order it added them; how many rows r yields; the virtual duration a
// TimedProcessor reported (Cost() for any other processor); and its error.
// The row-at-a-time reference builds rows from it with Row.With, apart from
// the row stage's own materialization.
func ApplyOneRaw(p Processor, r Row) (cols []Column, copies int, elapsed float64, err error) {
	w := getRowWorker(0)
	defer putRowWorker(w)
	m := &w.m
	m.reset(rowInput{rows: []Row{r}}, 0, 1)
	b := Batch{m: m, hi: 1}
	elapsed = p.Cost()
	if tp, ok := p.(TimedProcessor); ok {
		var times []float64
		times, err = tp.ApplyTimed(b, nil)
		elapsed = times[0]
	} else {
		err = p.Apply(b)
	}
	for _, c := range m.cols {
		cols = append(cols, Column{Name: c.name, Val: c.vals[0]})
	}
	copies = 1
	if m.reps != nil {
		copies = int(m.reps[0])
	}
	return cols, copies, elapsed, err
}
