package stream

import (
	"fmt"
	"sync"

	"probpred/internal/blob"
	"probpred/internal/mathx"
	"probpred/internal/obs"
	"probpred/internal/online"
	"probpred/internal/pplog"
	"probpred/internal/query"
	"probpred/internal/serve"
)

// Query declares one standing query: a predicate evaluated over every
// segment as it lands.
type Query struct {
	// ID labels the query in deltas and logs.
	ID string
	// Pred is the predicate text.
	Pred string
	// Accuracy is the query-wide accuracy target in (0, 1]. Zero selects 1
	// (no false negatives). It is both the serve-side planning target and
	// the watchdog's audit target.
	Accuracy float64
}

// Config configures an Ingestor.
type Config struct {
	// Server serves each segment's standing-query sessions; a sharded one
	// splits each segment across its shards. Required. Its Config.Corpus
	// (ShardedConfig.Base.Corpus) must be set, since segments are served via
	// Request.Blobs, and its optimizer must plan over Online's corpus when
	// Online is set — that is what routes per-segment retraining into the
	// plans. Its admission bound (MaxConcurrent) is the only limit on how
	// many of one segment's sessions run at once.
	Server *serve.Server
	// Corpus is the segmented blob corpus segments append to. Required.
	Corpus *SegmentedCorpus
	// Online, when set, closes the training loop per segment: realized
	// accuracy is audited against ground truth and reported to the watchdog,
	// and a sample of the segment's blobs is labeled and observed for
	// incremental (optionally warm-started) PP training. Nil freezes the PP
	// state — the configuration under which live deltas are byte-identical
	// to batch results.
	Online *online.System
	// Lookup resolves a blob's ground-truth attributes, used to label
	// training samples and to audit realized accuracy. Required when Online
	// is set. Audits run inside a segment's concurrent sessions, so Lookup
	// must be safe for concurrent use.
	Lookup func(blob.Blob) query.Lookup
	// TrainSample bounds how many blobs per segment are labeled for
	// training. Zero observes the whole segment.
	TrainSample int
	// Seed drives the per-segment training-sample choice.
	Seed uint64
}

// Delta is one standing query's incremental result over one segment. Rows
// arrive in blob-ID order (the engine preserves scan order), so
// concatenating a query's deltas across segments reproduces the batch result
// over the same corpus and PP state.
type Delta struct {
	// Query is the standing query's ID.
	Query string
	// Segment is the segment the delta covers.
	Segment Segment
	// Resp is the serve response: rows, decision, costs, trace.
	Resp *serve.Response
	// Audited reports whether ground truth was consulted (Config.Lookup set
	// and the segment contained at least one true-positive blob).
	Audited bool
	// Expected is the ground-truth match count in the segment; Observed the
	// fraction of it the served result retained. Meaningful when Audited.
	Expected int
	Observed float64
}

type standing struct {
	id       string
	pred     query.Pred
	accuracy float64
}

// Ingestor runs standing queries over a segmented corpus. Ingest calls are
// serialized (segment order is the stream's order), while the sessions of
// one segment run side by side under the server's admission bound; Register
// and BatchQuery may run concurrently with them.
type Ingestor struct {
	cfg Config

	mu      sync.RWMutex
	queries []standing

	// ingestMu serializes Ingest: one segment fully lands — deltas emitted,
	// watchdog fed, training observed — before the next begins. The
	// segment's own sessions run concurrently inside it.
	ingestMu sync.Mutex

	// Segments counts segments ingested; Deltas counts deltas emitted.
	segments, deltas uint64
}

// New validates the config and returns an Ingestor with no standing queries.
func New(cfg Config) (*Ingestor, error) {
	if cfg.Server == nil {
		return nil, fmt.Errorf("stream: Config.Server is required")
	}
	if cfg.Corpus == nil {
		return nil, fmt.Errorf("stream: Config.Corpus is required")
	}
	if cfg.Online != nil && cfg.Lookup == nil {
		return nil, fmt.Errorf("stream: Config.Lookup is required when Online is set (training labels and accuracy audits read ground truth)")
	}
	if cfg.TrainSample < 0 {
		return nil, fmt.Errorf("stream: TrainSample %d is negative", cfg.TrainSample)
	}
	return &Ingestor{cfg: cfg}, nil
}

// Register adds a standing query. Registration order is delta emission order
// within each segment.
func (in *Ingestor) Register(q Query) error {
	if q.ID == "" {
		return fmt.Errorf("stream: standing query needs an ID")
	}
	if q.Accuracy < 0 || q.Accuracy > 1 {
		return fmt.Errorf("stream: standing query %q accuracy %v outside [0,1] (zero selects 1)", q.ID, q.Accuracy)
	}
	if q.Accuracy == 0 {
		q.Accuracy = 1
	}
	pred, err := query.Parse(q.Pred)
	if err != nil {
		return fmt.Errorf("stream: standing query %q: %w", q.ID, err)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, s := range in.queries {
		if s.id == q.ID {
			return fmt.Errorf("stream: standing query %q already registered", q.ID)
		}
	}
	in.queries = append(in.queries, standing{id: q.ID, pred: pred, accuracy: q.Accuracy})
	return nil
}

// Ingest lands one segment and runs every standing query over exactly its
// blobs, returning one delta per query in registration order. The queries'
// sessions are issued at once, so they run side by side up to the server's
// admission bound (MaxConcurrent = 1 runs them one after another); each
// session's accuracy audit runs with it, and everything else — deltas,
// counters, training — is applied in registration order once all have
// returned. With an online system attached Ingest then feeds each delta's
// audited accuracy to the watchdog and observes a training sample; a training
// or a trip publishes a new PP-corpus snapshot, which plan searches already
// running never see. A failed query fails the ingest: the first failure in
// registration order is returned with the deltas registered before it, and
// the segment is still appended and counted (the stream's data is never lost
// to a planning error).
func (in *Ingestor) Ingest(blobs []blob.Blob) ([]Delta, error) {
	in.ingestMu.Lock()
	defer in.ingestMu.Unlock()

	in.mu.RLock()
	queries := append([]standing(nil), in.queries...)
	in.mu.RUnlock()

	seg := in.cfg.Corpus.Append(blobs)
	segBlobs := in.cfg.Corpus.Blobs(seg)

	// Each session writes only its own slot; wg.Wait is the only join, so no
	// session outlives the call whatever fails.
	deltas := make([]Delta, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := in.cfg.Server.Do(serve.Request{
				ID:       fmt.Sprintf("%s#seg%d", q.id, seg.Index),
				Pred:     q.pred,
				Accuracy: q.accuracy,
				Blobs:    segBlobs,
				Segment:  &pplog.SegInfo{Index: seg.Index, Version: seg.Version},
			})
			if err != nil {
				errs[i] = fmt.Errorf("stream: segment %d query %q: %w", seg.Index, q.id, err)
				return
			}
			deltas[i] = Delta{Query: q.id, Segment: seg, Resp: resp}
			if in.cfg.Lookup != nil {
				deltas[i].Audited, deltas[i].Expected, deltas[i].Observed = in.audit(q, segBlobs, resp)
			}
		}()
	}
	wg.Wait()

	in.segments++
	for i := range queries {
		if errs[i] != nil {
			return deltas[:i], errs[i]
		}
		in.deltas++
	}

	if in.cfg.Online != nil {
		in.train(seg, segBlobs, queries, deltas)
	}
	return deltas, nil
}

// audit measures one delta's realized accuracy: the fraction of the
// segment's ground-truth matches the served result retained. PPs only ever
// drop blobs, so retained/expected is exactly the per-segment realized
// accuracy the watchdog's target is stated in. A segment with no
// ground-truth matches carries no accuracy evidence (not audited).
func (in *Ingestor) audit(q standing, segBlobs []blob.Blob, resp *serve.Response) (bool, int, float64) {
	truth := make(map[int]bool, len(segBlobs))
	expected := 0
	for _, b := range segBlobs {
		ok, err := q.pred.Eval(in.cfg.Lookup(b))
		if err != nil {
			return false, 0, 0 // ground truth cannot answer this predicate
		}
		if ok {
			truth[b.ID] = true
			expected++
		}
	}
	if expected == 0 {
		return false, 0, 0
	}
	retained := 0
	for _, row := range resp.Result.Rows {
		if truth[row.Blob.ID] {
			retained++
		}
	}
	return true, expected, float64(retained) / float64(expected)
}

// train closes the per-segment feedback loop: audited accuracies feed the
// watchdog (K consecutive breaches trip a clause's breaker, removing its PP),
// then a deterministic sample of the segment is labeled and observed, which is
// where incremental (re)training — warm-started when the online system is
// configured for it — actually runs.
func (in *Ingestor) train(seg Segment, segBlobs []blob.Blob, queries []standing, deltas []Delta) {
	sample := segBlobs
	if n := in.cfg.TrainSample; n > 0 && n < len(segBlobs) {
		rng := mathx.NewRNG(in.cfg.Seed ^ (seg.Version * 0x9E3779B97F4A7C15))
		perm := rng.Perm(len(segBlobs))
		sample = make([]blob.Blob, n)
		for i := 0; i < n; i++ {
			sample[i] = segBlobs[perm[i]]
		}
	}
	for i, d := range deltas {
		if !d.Audited {
			continue
		}
		// Watchdog events carry the delta's trace, so a breach or trip joins
		// the session that observed it.
		in.cfg.Online.ReportAccuracyCtx(d.Resp.Decision, d.Observed, queries[i].accuracy, obs.TraceContext{TraceID: d.Resp.TraceID})
	}
	for _, b := range sample {
		_ = in.cfg.Online.Observe(b, in.cfg.Lookup(b))
	}
}

// BatchQuery runs one registered standing query over the entire corpus as a
// single session — the backfill path. Over the same corpus and PP state, its
// result is byte-identical to the concatenation of the query's per-segment
// deltas: the scan covers the same blobs in the same order and every engine
// operator charges per row.
func (in *Ingestor) BatchQuery(id string) (*serve.Response, error) {
	in.mu.RLock()
	var q *standing
	for i := range in.queries {
		if in.queries[i].id == id {
			q = &in.queries[i]
			break
		}
	}
	in.mu.RUnlock()
	if q == nil {
		return nil, fmt.Errorf("stream: no standing query %q", id)
	}
	blobs, version := in.cfg.Corpus.Snapshot()
	return in.cfg.Server.Do(serve.Request{
		ID:       fmt.Sprintf("%s#batch@v%d", q.id, version),
		Pred:     q.pred,
		Accuracy: q.accuracy,
		Blobs:    blobs,
	})
}

// Stats reports lifetime counters: segments ingested, including those whose
// queries failed, and deltas emitted.
func (in *Ingestor) Stats() (segments, deltas uint64) {
	in.ingestMu.Lock()
	defer in.ingestMu.Unlock()
	return in.segments, in.deltas
}
