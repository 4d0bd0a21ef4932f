package bench

import (
	"fmt"
	"strings"

	"probpred/internal/data"
	"probpred/internal/serve"
)

// Serve replays the TRAF20 workload through internal/serve twice — once with
// the PP score cache disabled, once enabled — and compares evaluation counts
// and outputs. It is not a paper experiment: it validates the serving
// layer's contract (DESIGN.md "Serving & caching"), gated by
// TestScenarioGates (eval_ratio >= 2, outputs_identical). The disabled
// variant routes every lookup through the same cache plumbing but stores
// nothing, so its miss counter is an exact count of PP score evaluations an
// uncached server performs. Wall clock for this path is benchmark/'s
// traf20_steady workload.

// serveWorkload repeats TRAF20 for rounds rounds with distinct session ids.
// Repetition is the realistic part: production queries recur, and recurrence
// is what the plan cache converts into hits.
func serveWorkload(rounds int) []serve.WorkloadQuery {
	var out []serve.WorkloadQuery
	for r := 0; r < rounds; r++ {
		for _, q := range TRAF20 {
			out = append(out, serve.WorkloadQuery{
				ID:   fmt.Sprintf("%s.r%d", q.ID, r+1),
				Pred: q.Pred,
			})
		}
	}
	return out
}

// renderServeResponses flattens responses to a canonical text form — session
// id, row count, virtual cluster time, output blob ids — the byte-comparison
// primitive behind OutputsIdentical.
func renderServeResponses(resps []*serve.Response) string {
	var sb strings.Builder
	for _, r := range resps {
		if r == nil {
			sb.WriteString("<nil>\n")
			continue
		}
		fmt.Fprintf(&sb, "%s rows=%d cluster=%.6f ids=", r.ID, len(r.Result.Rows), r.Result.ClusterTime)
		for i, row := range r.Result.Rows {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", row.Blob.ID)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Serve builds the traffic harness and replays the workload against an
// uncached and a cached server.
func Serve(cfg Config) (*Report, error) {
	const (
		accuracy    = 0.95
		concurrency = 4
	)
	rounds := cfg.scale(3, 2)
	h, err := NewTrafficHarness(cfg)
	if err != nil {
		return nil, err
	}
	workload := serveWorkload(rounds)

	// replay returns one variant's counters and its rendered responses.
	replay := func(mode string, disable bool) (serve.Stats, string, error) {
		srv, err := serve.New(serve.Config{
			Optimizer:         h.Opt,
			Builder:           serve.BindCorpus(trafficBuilder{h: h}, h.TestBlobs),
			Accuracy:          accuracy,
			Domains:           data.TrafficDomains(),
			MaxConcurrent:     concurrency,
			DisableScoreCache: disable,
			Metrics:           cfg.Metrics,
			Obs:               cfg.Obs,
		})
		if err != nil {
			return serve.Stats{}, "", err
		}
		resps, err := srv.Replay(workload, concurrency)
		if err != nil {
			return serve.Stats{}, "", fmt.Errorf("bench: serve replay (%s): %w", mode, err)
		}
		return srv.Stats(), renderServeResponses(resps), nil
	}

	uncached, renderU, err := replay("uncached", true)
	if err != nil {
		return nil, err
	}
	cached, renderC, err := replay("cached", false)
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "serve", Title: fmt.Sprintf(
		"Concurrent serving: %d sessions (%d queries x %d rounds), score cache off vs on", len(workload), len(TRAF20), rounds)}
	// Score evals = score-cache misses: with the cache disabled, every
	// lookup; with it on, the computations actually performed. Which
	// session computes a shared score first depends on the interleaving,
	// so the cached row and the ratio built on it are Wall.
	statsTable := func(mode string, st serve.Stats) *table {
		tb := &table{header: []string{"mode", "sessions", "plan hit/miss", "score evals", "score hits", "hit rate"}}
		tb.add(mode, fmt.Sprintf("%d", st.Sessions), fmt.Sprintf("%d/%d", st.PlanHits, st.PlanMisses),
			fmt.Sprintf("%d", st.ScoreMisses), fmt.Sprintf("%d", st.ScoreHits),
			f3(hitRate(st.ScoreHits, st.ScoreMisses)))
		return tb
	}
	// How many times fewer PP scores the shared cache computes.
	evalRatio := 0.0
	if cached.ScoreMisses > 0 {
		evalRatio = float64(uncached.ScoreMisses) / float64(cached.ScoreMisses)
	}
	identical := renderU == renderC

	rep.Lines = statsTable("uncached", uncached).render()
	rep.addf("")
	rep.addf("outputs identical: %v", identical)
	rep.Wall = statsTable("cached", cached).render()
	rep.wallf("eval ratio (uncached/cached): %.2fx", evalRatio)
	rep.metric("eval_ratio", evalRatio)
	rep.metric("outputs_identical", b2f(identical))
	rep.metric("plan_hit_rate", hitRate(cached.PlanHits, cached.PlanMisses))
	rep.metric("score_hit_rate", hitRate(cached.ScoreHits, cached.ScoreMisses))
	return rep, nil
}

// hitRate is hits over lookups, zero when nothing was looked up.
func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
