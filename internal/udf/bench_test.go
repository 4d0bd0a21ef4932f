package udf

import (
	"testing"

	"probpred/internal/data"
	"probpred/internal/engine"
)

// BenchmarkTrafficAttribute times one morsel-sized batch through a traffic
// attribute UDF and back out as rows (engine.ApplyRows): 1 024 traffic rows,
// no error process, for the first (t) and the last (o) of the traffic truth
// keys. ns/row is per input row.
func BenchmarkTrafficAttribute(b *testing.B) {
	blobs := data.Traffic(data.TrafficConfig{Rows: 1024, Seed: 1})
	rows := make([]engine.Row, len(blobs))
	for i, bl := range blobs {
		rows[i] = engine.NewRow(bl)
	}
	for _, col := range []string{"t", "o"} {
		b.Run(col, func(b *testing.B) {
			u, err := TrafficUDFFor(col, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for range b.N {
				if _, _, err := engine.ApplyRows(u, rows); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
		})
	}
}
