package stream

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/online"
	"probpred/internal/pplog"
	"probpred/internal/serve"
	"probpred/internal/testkit"
)

func TestSegmentedCorpusAppend(t *testing.T) {
	c := NewSegmentedCorpus()
	if v := c.Version(); v != 0 {
		t.Fatalf("fresh corpus version = %d, want 0", v)
	}
	all := testkit.Blobs(30, 1)
	s1 := c.Append(all[:10])
	s2 := c.Append(all[10:12])
	s3 := c.Append(nil) // heartbeat: empty but still a version
	s4 := c.Append(all[12:])
	want := []Segment{
		{Index: 0, Version: 1, Start: 0, End: 10},
		{Index: 1, Version: 2, Start: 10, End: 12},
		{Index: 2, Version: 3, Start: 12, End: 12},
		{Index: 3, Version: 4, Start: 12, End: 30},
	}
	for i, got := range []Segment{s1, s2, s3, s4} {
		if got != want[i] {
			t.Errorf("segment %d = %+v, want %+v", i, got, want[i])
		}
	}
	if v := c.Version(); v != 4 {
		t.Errorf("version = %d, want 4", v)
	}
	if n := c.Len(); n != 30 {
		t.Errorf("len = %d, want 30", n)
	}
	segs := c.Segments()
	if len(segs) != 4 || segs[1] != want[1] {
		t.Errorf("Segments() = %+v", segs)
	}
	if got := c.Blobs(s2); len(got) != 2 || got[0].ID != all[10].ID || got[1].ID != all[11].ID {
		t.Errorf("Blobs(s2) covers wrong range")
	}
	if got := c.Blobs(s3); len(got) != 0 {
		t.Errorf("Blobs(heartbeat) = %d blobs, want 0", len(got))
	}
}

func TestSnapshotStableUnderAppend(t *testing.T) {
	c := NewSegmentedCorpus()
	all := testkit.Blobs(20, 2)
	c.Append(all[:5])
	snap, v := c.Snapshot()
	if v != 1 || len(snap) != 5 {
		t.Fatalf("snapshot = %d blobs at v%d, want 5 at v1", len(snap), v)
	}
	c.Append(all[5:])
	if len(snap) != 5 {
		t.Fatalf("snapshot grew to %d blobs after a later append", len(snap))
	}
	for i := range snap {
		if snap[i].ID != all[i].ID {
			t.Fatalf("snapshot blob %d mutated after append", i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	st := newMiniStack(t, nil, nil)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no server", Config{Corpus: st.corpus}, "Server is required"},
		{"no corpus", Config{Server: st.srv}, "Corpus is required"},
		{"online without lookup", Config{Server: st.srv, Corpus: st.corpus, Online: &online.System{}}, "Lookup is required"},
		{"negative sample", Config{Server: st.srv, Corpus: st.corpus, TrainSample: -1}, "negative"},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	st := newMiniStack(t, nil, nil)
	if err := st.ing.Register(Query{Pred: "t=SUV"}); err == nil {
		t.Error("missing ID accepted")
	}
	if err := st.ing.Register(Query{ID: "q", Pred: "t=SUV", Accuracy: 1.5}); err == nil {
		t.Error("accuracy 1.5 accepted")
	}
	if err := st.ing.Register(Query{ID: "q", Pred: "t ~~ SUV"}); err == nil {
		t.Error("unparsable predicate accepted")
	}
	if err := st.ing.Register(Query{ID: "q", Pred: "t=SUV"}); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	if err := st.ing.Register(Query{ID: "q", Pred: "c=red"}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if _, err := st.ing.BatchQuery("nope"); err == nil {
		t.Error("BatchQuery on unknown ID succeeded")
	}
}

// TestIngestMetrics: an ingest's numbers are the Ingestor's Stats, the
// corpus's version and size, and the deltas it returns.
func TestIngestMetrics(t *testing.T) {
	st := newMiniStack(t, nil, nil)
	st.register(t, testkit.Query{ID: "SQ1", Pred: "t=SUV"})
	all := testkit.Blobs(100, 4)
	rows := 0
	for _, seg := range testkit.Split(all, []int{40}) {
		deltas, err := st.ing.Ingest(seg)
		if err != nil {
			t.Fatal(err)
		}
		rows += len(deltas[0].Resp.Result.Rows)
	}
	if segments, deltas := st.ing.Stats(); segments != 2 || deltas != 2 {
		t.Errorf("Stats() = %d segments, %d deltas; want 2, 2", segments, deltas)
	}
	if n := st.corpus.Len(); n != 100 {
		t.Errorf("corpus holds %d blobs, want 100", n)
	}
	if v := st.corpus.Version(); v != 2 {
		t.Errorf("corpus version = %d, want 2", v)
	}
	if rows <= 0 {
		t.Errorf("SQ1's deltas carry %d rows, want > 0", rows)
	}
}

func TestSegmentTagsQueryLog(t *testing.T) {
	var logBuf bytes.Buffer
	qlog := pplog.NewWriter(&logBuf, 64, nil)
	st := newMiniStack(t, func(c *serve.Config) { c.QueryLog, c.MaxConcurrent = qlog, 4 }, nil)
	st.register(t, testkit.Standing...)
	const nSegs = 2
	for _, seg := range testkit.Split(testkit.Blobs(100, 5), []int{50}) {
		if _, err := st.ing.Ingest(seg); err != nil {
			t.Fatal(err)
		}
	}
	if resp, err := st.ing.BatchQuery("SQ1"); err != nil || resp == nil {
		t.Fatal(err)
	}
	if err := qlog.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := pplog.Read(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	n := len(testkit.Standing)
	if len(recs) != nSegs*n+1 {
		t.Fatalf("query log has %d records, want one per session per segment plus the batch: %d", len(recs), nSegs*n+1)
	}
	// Segments log one after another, but a segment's sessions log in
	// completion order: sort each segment's records by session.
	for s := 0; s < nSegs; s++ {
		segRecs := recs[s*n : (s+1)*n]
		sort.Slice(segRecs, func(i, j int) bool { return segRecs[i].Session < segRecs[j].Session })
		for i, r := range segRecs {
			want := fmt.Sprintf("%s#seg%d", testkit.Standing[i].ID, s)
			if r.Session != want || r.Seg == nil || r.Seg.Index != s || r.Seg.Version != uint64(s+1) {
				t.Fatalf("segment %d record %d = session %q tag %+v, want session %q index %d version %d",
					s, i, r.Session, r.Seg, want, s, s+1)
			}
		}
	}
	if last := recs[len(recs)-1]; last.Seg != nil {
		t.Fatalf("batch record should carry no segment tag, got %+v", last.Seg)
	}
}

func TestIngestCopiesCallerSlice(t *testing.T) {
	st := newMiniStack(t, nil, nil)
	st.register(t, testkit.Query{ID: "SQ1", Pred: "t=SUV"})
	blobs := testkit.Blobs(10, 6)
	if _, err := st.ing.Ingest(blobs); err != nil {
		t.Fatal(err)
	}
	stored, _ := st.corpus.Snapshot()
	blobs[0] = blob.Blob{} // caller reuses its slice
	if stored[0].ID != 0 || stored[0].Dense == nil {
		t.Fatal("corpus aliases the caller's slice")
	}
}
