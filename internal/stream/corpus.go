// Package stream implements streaming ingestion (the live scenarios the
// paper gestures at in Appendix B): an append-only, segment-versioned blob
// corpus plus standing queries — registered predicates that PP-filter each
// new segment as it lands and emit incremental result deltas whose
// concatenation is byte-identical to the one-shot batch query over the same
// corpus and PP state.
//
// The corpus half is SegmentedCorpus: blobs arrive in segments, each append
// advances a monotonically increasing corpus version and records the
// segment's blob range. Appended data is immutable, so readers holding a
// snapshot or a segment's blob slice never observe torn state while later
// segments land.
//
// The query half is Ingestor: Ingest appends one segment and runs every
// standing query over exactly that segment through a serve.Server, sharded
// or not (Request.Blobs). A segment's sessions run side by side under the
// server's admission bound and land in registration order;
// segments land one at a time. They share the server's plan and score caches
// across segments — per-clause PP training on one column leaves every other
// query's cached plan untouched (partial invalidation). With an online.System
// attached, each segment also audits realized accuracy against ground truth
// (feeding the watchdog's trip → retrain → probation cycle) and labels a
// sample of the segment for incremental, warm-started PP training.
package stream

import (
	"sync"

	"probpred/internal/blob"
)

// Segment describes one appended batch of blobs.
type Segment struct {
	// Index is the segment's 0-based arrival order.
	Index int
	// Version is the corpus version after the segment landed (Index+1):
	// the segment-granular counter standing queries and logs are tagged
	// with.
	Version uint64
	// Start and End delimit the segment's blob range [Start, End) within
	// the full corpus.
	Start, End int
}

// Len returns the number of blobs in the segment.
func (s Segment) Len() int { return s.End - s.Start }

// SegmentedCorpus is an append-only blob corpus versioned per segment.
// Appends and reads may race freely: appended blobs are immutable and the
// backing slice only grows, so a snapshot taken at version v keeps reading
// exactly the first v segments however many land afterwards.
type SegmentedCorpus struct {
	mu    sync.RWMutex
	blobs []blob.Blob
	segs  []Segment
}

// NewSegmentedCorpus returns an empty corpus at version 0. The backing slice
// starts empty but non-nil, so Blobs and Snapshot never return nil: a nil
// Request.Blobs would make a server scan its bound corpus (a sharded
// server's shard slices) instead of the empty segment.
func NewSegmentedCorpus() *SegmentedCorpus {
	return &SegmentedCorpus{blobs: []blob.Blob{}}
}

// Append lands one segment: the blobs are copied into the corpus (the caller
// may reuse its slice), the version advances by one, and the new segment is
// returned. Empty appends are legal and still advance the version — a
// heartbeat segment.
func (c *SegmentedCorpus) Append(blobs []blob.Blob) Segment {
	c.mu.Lock()
	defer c.mu.Unlock()
	seg := Segment{
		Index:   len(c.segs),
		Version: uint64(len(c.segs)) + 1,
		Start:   len(c.blobs),
		End:     len(c.blobs) + len(blobs),
	}
	c.blobs = append(c.blobs, blobs...)
	c.segs = append(c.segs, seg)
	return seg
}

// Version returns the corpus version: the number of segments appended.
func (c *SegmentedCorpus) Version() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return uint64(len(c.segs))
}

// Len returns the total number of blobs across all segments.
func (c *SegmentedCorpus) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.blobs)
}

// Segments returns a copy of the segment index.
func (c *SegmentedCorpus) Segments() []Segment {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]Segment(nil), c.segs...)
}

// Snapshot returns the corpus's blobs and version as one consistent pair:
// the slice covers exactly the segments counted by the version, and stays
// valid (and unchanged) under concurrent appends. The slice is shared, not
// copied — callers must treat it as read-only.
func (c *SegmentedCorpus) Snapshot() ([]blob.Blob, uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blobs[:len(c.blobs):len(c.blobs)], uint64(len(c.segs))
}

// Blobs returns the blob slice of one segment (shared, read-only). The
// segment must have been returned by this corpus's Append or Segments.
func (c *SegmentedCorpus) Blobs(seg Segment) []blob.Blob {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blobs[seg.Start:seg.End:seg.End]
}
