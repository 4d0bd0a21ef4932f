package pplog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"probpred/internal/obs"
)

// ReadSpans parses a span dump in the obs JSON-lines format (JSONSink output
// or FlightRecorder.DumpJSON): one {"type": "span"|"event"} object
// per line. Non-JSON lines (e.g. text-dump framing) and non-span records are
// skipped, so a mixed stderr capture still yields its spans.
func ReadSpans(r io.Reader) ([]obs.Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []obs.Span
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(text, "{") {
			continue
		}
		var rec struct {
			Type string `json:"type"`
			obs.Span
		}
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			continue
		}
		if rec.Type == "span" {
			out = append(out, rec.Span)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("span dump: %w", err)
	}
	return out, nil
}

// ReadSpansFile reads a span dump from path.
func ReadSpansFile(path string) ([]obs.Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSpans(f)
}

// Options tunes Analyze. The zero value picks the documented defaults.
type Options struct {
	// SLOMS is the latency objective in wall milliseconds. Zero derives it
	// as 20x the median session service time (the auto-tune harness's SLO).
	SLOMS float64
	// TopK bounds the slowest-trace drilldown (default 5).
	TopK int
	// MisestimateTol is the |est - observed| reduction gap that counts a
	// session as misestimated (default 0.25, matching EXPLAIN ANALYZE's
	// MISESTIMATE flag threshold order).
	MisestimateTol float64
	// SkewRatio is the max/min leg service ratio that counts a
	// scatter-gather session as shard-skewed (default 2.0).
	SkewRatio float64
	// Drops is the writer's drop count at the end of the run, carried into
	// the analysis verbatim.
	Drops uint64
}

// TraceDetail is one slow session with its span tree, joined by TraceID.
type TraceDetail struct {
	TraceID string  `json:"trace_id"`
	Session string  `json:"session,omitempty"`
	PlanKey string  `json:"plan_key,omitempty"`
	TotalMS float64 `json:"total_ms"`
	// QueueMS / ServiceMS split TotalMS at the admission point.
	QueueMS   float64 `json:"queue_ms"`
	ServiceMS float64 `json:"service_ms"`
	// Spans is the session's span tree, one indented line per span
	// (children under parents, siblings in start order).
	Spans []string `json:"spans,omitempty"`
	// SpanCount is the number of spans sharing the trace.
	SpanCount int `json:"span_count"`
}

// Analysis is the analyzer's report — what ppbench's `obs` experiment
// prints and gates on.
type Analysis struct {
	Sessions int `json:"sessions"`
	Errors   int `json:"errors"`
	// Drops echoes the query-log writer's drop counter.
	Drops uint64 `json:"querylog_drops"`
	// AllHaveTrace reports whether every record carried a TraceID.
	AllHaveTrace bool `json:"all_have_trace"`
	// PlanCacheHitRate is the fraction of sessions served from the plan cache.
	PlanCacheHitRate float64 `json:"plan_cache_hit_rate"`
	// SLOMS is the objective used; SLOAttainment the fraction of sessions
	// whose total latency met it.
	SLOMS         float64 `json:"slo_ms"`
	SLOAttainment float64 `json:"slo_attainment"`
	// MisestimateRate is the fraction of sessions whose estimated vs
	// observed PP reduction diverged by more than the tolerance.
	MisestimateRate float64 `json:"misestimate_rate"`
	// ShardSkewRate is the fraction of scatter-gather sessions whose
	// slowest leg took more than SkewRatio times the fastest.
	ShardSkewRate float64 `json:"shard_skew_rate"`
	// TopSlowest drills into the slowest sessions with their span trees.
	TopSlowest []TraceDetail `json:"top_slowest,omitempty"`
}

// Analyze joins query-log records with a span dump and reports SLO
// attainment, the slowest traces (with span trees), misestimate and
// shard-skew rates.
func Analyze(records []Record, spans []obs.Span, opts Options) Analysis {
	if opts.TopK <= 0 {
		opts.TopK = 5
	}
	if opts.MisestimateTol <= 0 {
		opts.MisestimateTol = 0.25
	}
	if opts.SkewRatio <= 0 {
		opts.SkewRatio = 2.0
	}

	a := Analysis{Drops: opts.Drops, AllHaveTrace: true}
	sessions := make([]*Record, len(records))
	for i := range records {
		rec := &records[i]
		if rec.TraceID == "" {
			a.AllHaveTrace = false
		}
		sessions[i] = rec
		if rec.Error != "" {
			a.Errors++
		}
	}
	a.Sessions = len(sessions)
	if len(sessions) == 0 {
		return a
	}

	// SLO: given, or 20x the median service time.
	a.SLOMS = opts.SLOMS
	if a.SLOMS <= 0 {
		svc := make([]float64, len(sessions))
		for i, rec := range sessions {
			svc[i] = float64(rec.ServiceNS) / 1e6
		}
		sort.Float64s(svc)
		a.SLOMS = 20 * svc[len(svc)/2]
	}

	var met, cached, misest, estN, skewed, scattered int
	for _, rec := range sessions {
		if float64(rec.TotalNS())/1e6 <= a.SLOMS {
			met++
		}
		if rec.PlanCached {
			cached++
		}
		if rec.EstReduction > 0 {
			estN++
			gap := rec.EstReduction - rec.ObsReduction
			if gap < 0 {
				gap = -gap
			}
			if gap > opts.MisestimateTol {
				misest++
			}
		}
		if len(rec.Legs) >= 2 {
			scattered++
			minSvc, maxSvc := rec.Legs[0].ServiceNS, rec.Legs[0].ServiceNS
			for _, leg := range rec.Legs[1:] {
				if leg.ServiceNS < minSvc {
					minSvc = leg.ServiceNS
				}
				if leg.ServiceNS > maxSvc {
					maxSvc = leg.ServiceNS
				}
			}
			if minSvc > 0 && float64(maxSvc)/float64(minSvc) > opts.SkewRatio {
				skewed++
			}
		}
	}
	a.SLOAttainment = float64(met) / float64(len(sessions))
	a.PlanCacheHitRate = float64(cached) / float64(len(sessions))
	if estN > 0 {
		a.MisestimateRate = float64(misest) / float64(estN)
	}
	if scattered > 0 {
		a.ShardSkewRate = float64(skewed) / float64(scattered)
	}

	// Top-k slowest sessions, joined with their span trees.
	byTrace := spansByTrace(spans)
	order := append([]*Record(nil), sessions...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].TotalNS() > order[j].TotalNS() })
	if len(order) > opts.TopK {
		order = order[:opts.TopK]
	}
	for _, rec := range order {
		tree := renderSpanTree(byTrace[rec.TraceID])
		a.TopSlowest = append(a.TopSlowest, TraceDetail{
			TraceID:   rec.TraceID,
			Session:   rec.Session,
			PlanKey:   rec.PlanKey,
			TotalMS:   float64(rec.TotalNS()) / 1e6,
			QueueMS:   float64(rec.QueueWaitNS) / 1e6,
			ServiceMS: float64(rec.ServiceNS) / 1e6,
			Spans:     tree,
			SpanCount: len(byTrace[rec.TraceID]),
		})
	}
	return a
}

// spansByTrace groups spans by TraceID, dropping untraced spans.
func spansByTrace(spans []obs.Span) map[string][]obs.Span {
	out := map[string][]obs.Span{}
	for _, sp := range spans {
		if sp.Trace != "" {
			out[sp.Trace] = append(out[sp.Trace], sp)
		}
	}
	return out
}

// renderSpanTree renders one trace's spans as indented lines, children under
// parents. Spans whose parent is outside the trace (or 0) are roots.
func renderSpanTree(spans []obs.Span) []string {
	if len(spans) == 0 {
		return nil
	}
	present := make(map[int64]bool, len(spans))
	for _, sp := range spans {
		present[sp.ID] = true
	}
	children := map[int64][]obs.Span{}
	var roots []obs.Span
	for _, sp := range spans {
		if sp.Parent != 0 && present[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	byStart := func(s []obs.Span) {
		sort.SliceStable(s, func(i, j int) bool {
			if !s[i].Start.Equal(s[j].Start) {
				return s[i].Start.Before(s[j].Start)
			}
			return s[i].ID < s[j].ID
		})
	}
	byStart(roots)
	var out []string
	var walk func(sp obs.Span, depth int)
	walk = func(sp obs.Span, depth int) {
		line := fmt.Sprintf("%s[%s] %s wall=%.3fms", strings.Repeat("  ", depth), sp.Kind, sp.Name, float64(sp.WallNS)/1e6)
		if sp.CostVMS > 0 {
			line += fmt.Sprintf(" cost=%.1fvms", sp.CostVMS)
		}
		if sp.RowsIn > 0 || sp.RowsOut > 0 {
			line += fmt.Sprintf(" rows=%d→%d", sp.RowsIn, sp.RowsOut)
		}
		for _, at := range sp.Attrs {
			line += fmt.Sprintf(" %s=%s", at.Key, at.Value)
		}
		out = append(out, line)
		kids := children[sp.ID]
		byStart(kids)
		for _, kid := range kids {
			walk(kid, depth+1)
		}
	}
	for _, root := range roots {
		walk(root, 0)
	}
	return out
}
