package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced pass records spans from the benchmark's own side of each layer
// boundary: it times its calls into query.Parse, Server.Do, Coordinator.Do,
// Ingestor.Ingest, PP.ScoreBatch and SegmentedCorpus.Append, and it reads the
// durations those calls already return (Response.QueueWait / Service,
// Decision.Search.WallNS, Result.PerOp[].WallNS). Root, parse, queue-wait and
// service spans carry measured start and end times. Spans below
// serve.service carry measured durations laid end to end from the service
// start: the program reports how long each took, not when it began.

// opKind classifies one engine operator of a session.
type opKind string

const (
	kindScan     opKind = "engine.scan"
	kindPPFilter opKind = "engine.ppfilter"
	kindUDF      opKind = "engine.udf"
	kindSelect   opKind = "engine.select"
)

// opStat is one engine operator's share of a session. wall is summed over
// the session's parallel legs; wall/legs is the operator's share of the
// session's own wall time.
type opStat struct {
	kind            opKind
	wall            time.Duration
	rowsIn, rowsOut int
	hits, misses    uint64
}

// sessionDetail is one served session: a Do call, one leg-merged scatter, or
// one standing query's delta.
type sessionDetail struct {
	queueWait, service time.Duration
	planCached         bool
	// legs is 1 for a single server and the shard count for a merged scatter.
	legs int
	// search is the plan search's wall time (zero on plan-cache hits);
	// costed, memoHits and memoEntries profile it.
	search                        time.Duration
	costed, memoHits, memoEntries int
	ops                           []opStat
}

// opDetail is the traced pass's record of one operation.
type opDetail struct {
	// root names the root span: serve.do, shard.do or stream.ingest.
	root string
	// parse is the benchmark's query.Parse call, call its call into the
	// serving layer (Do / Ingest).
	parse, call time.Duration
	sessions    []sessionDetail
}

// span is one entry of trace.json.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Session  int    `json:"session"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Counts are the tallies taken at the same boundary: rows in and out,
	// score-cache hits and misses, plan hit, candidates costed.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	spans []span
}

func (l *spanLog) add(parent, session int, workload, name string, start, end time.Duration, counts map[string]float64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Session: session, Workload: workload, Name: name,
		StartNS: int64(start), EndNS: int64(end), Counts: counts,
	})
	return id
}

// addOp expands one traced operation into its span tree. epoch is the phase
// start's offset in the run, so spans of later phases do not overlap earlier
// ones.
func (l *spanLog) addOp(workload string, epoch time.Duration, r *opRecord) {
	d := r.detail
	session := r.index + 1
	sent := epoch + r.sent
	root := l.add(0, session, workload, d.root, sent, epoch+r.done, map[string]float64{
		"ok": b2f(r.ok), "lag_ns": float64(r.sent - r.due),
	})
	at := sent
	if d.parse > 0 {
		l.add(root, session, workload, "query.parse", at, at+d.parse, nil)
		at += d.parse
	}
	for _, s := range d.sessions {
		parent := root
		if d.root == "stream.ingest" {
			parent = l.add(root, session, workload, "stream.session", at, at+s.queueWait+s.service, nil)
		}
		var svcStart time.Duration
		if d.root == "shard.do" {
			// The coordinator's Service is scatter-to-merge and already
			// contains the slowest leg's admission wait.
			svc := l.add(parent, session, workload, "serve.service", at, at+s.service, map[string]float64{"plan_hit": b2f(s.planCached)})
			l.add(svc, session, workload, "serve.queue_wait", at, at+s.queueWait, nil)
			svcStart, parent = at+s.queueWait, svc
		} else {
			l.add(parent, session, workload, "serve.queue_wait", at, at+s.queueWait, nil)
			svcStart = at + s.queueWait
			parent = l.add(parent, session, workload, "serve.service", svcStart, svcStart+s.service, map[string]float64{"plan_hit": b2f(s.planCached)})
		}
		cur := svcStart
		if s.search > 0 {
			l.add(parent, session, workload, "optimizer.search", cur, cur+s.search, map[string]float64{
				"candidates_costed": float64(s.costed), "memo_hits": float64(s.memoHits), "memo_entries": float64(s.memoEntries),
			})
			cur += s.search
		}
		for _, op := range s.ops {
			wall := op.wall / time.Duration(s.legs)
			l.add(parent, session, workload, string(op.kind), cur, cur+wall, map[string]float64{
				"rows_in": float64(op.rowsIn), "rows_out": float64(op.rowsOut),
				"cache_hits": float64(op.hits), "cache_misses": float64(op.misses), "legs": float64(s.legs),
			})
			cur += wall
		}
		at += s.queueWait + s.service
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover (children may overlap one another and
// are clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	kids := map[int][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.StartNS, s.EndNS})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, edge := int64(0), s.StartNS
		for _, k := range ivs {
			lo, hi := max(k.lo, edge), min(k.hi, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// unattributedShare is the share of root-span wall time that no child span
// covers: what the trace cannot assign to a layer.
func unattributedShare(spans []span) float64 {
	self := selfTimes(spans)
	var wall, bare int64
	for _, s := range spans {
		if s.Parent == 0 {
			wall += s.EndNS - s.StartNS
			bare += self[s.ID]
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(bare) / float64(wall)
}

// traceFile is the document written to trace.json.
type traceFile struct {
	Env   envInfo `json:"env"`
	Seed  uint64  `json:"seed"`
	Spans []span  `json:"spans"`
}

func writeTrace(path string, doc traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
