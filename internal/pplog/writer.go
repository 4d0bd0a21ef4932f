package pplog

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"

	"probpred/internal/metrics"
)

// DefaultBuffer is the writer's channel capacity when none is given: deep
// enough to ride out scrape-sized stalls of the underlying writer at serving
// throughput, small enough to bound memory when it is gone for good.
const DefaultBuffer = 1024

// Writer appends Records as JSON Lines from a single background goroutine.
// Log never blocks: when the bounded channel is full (the sink is slower
// than the serve path) the record is dropped and counted instead — the
// serving hot path must never stall on its own telemetry.
type Writer struct {
	mu     sync.RWMutex
	closed bool
	ch     chan Record
	done   chan struct{}

	written atomic.Uint64
	drops   atomic.Uint64
	err     error // write/encode error, surfaced by Close; set before done closes

	recordsCtr *metrics.Counter
	dropsCtr   *metrics.Counter
}

// NewWriter starts a query-log writer over out. buffer <= 0 selects
// DefaultBuffer. reg, when non-nil, receives querylog_records_total and
// querylog_dropped_total counters.
func NewWriter(out io.Writer, buffer int, reg *metrics.Registry) *Writer {
	if buffer <= 0 {
		buffer = DefaultBuffer
	}
	w := &Writer{
		ch:         make(chan Record, buffer),
		done:       make(chan struct{}),
		recordsCtr: reg.Counter("querylog_records_total", "Query-log records written."),
		dropsCtr:   reg.Counter("querylog_dropped_total", "Query-log records dropped: the writer's buffer was full, it was closed, or its sink failed."),
	}
	go w.run(out)
	return w
}

func (w *Writer) run(out io.Writer) {
	defer close(w.done)
	enc := json.NewEncoder(out)
	for rec := range w.ch {
		if w.err == nil {
			if w.err = enc.Encode(rec); w.err == nil {
				w.written.Add(1)
				w.recordsCtr.Inc()
				continue
			}
		}
		// The sink failed on this record or before it: the record is lost.
		w.drops.Add(1)
		w.dropsCtr.Inc()
	}
}

// Log enqueues a record without blocking. It reports false — and counts a
// drop — when the buffer is full or the writer is closed.
func (w *Writer) Log(rec Record) bool {
	if w == nil {
		return false
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.closed {
		w.drops.Add(1)
		w.dropsCtr.Inc()
		return false
	}
	select {
	case w.ch <- rec:
		return true
	default:
		w.drops.Add(1)
		w.dropsCtr.Inc()
		return false
	}
}

// Written returns how many records reached the underlying writer.
func (w *Writer) Written() uint64 {
	if w == nil {
		return 0
	}
	return w.written.Load()
}

// Drops returns how many records were dropped: full buffer, closed writer,
// or a sink that failed. Once Close returns, Written() + Drops() is the
// number of Log calls.
func (w *Writer) Drops() uint64 {
	if w == nil {
		return 0
	}
	return w.drops.Load()
}

// Close flushes buffered records and stops the writer, returning the first
// write error, if any. Close is idempotent; Log after Close counts drops.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.ch)
	}
	w.mu.Unlock()
	<-w.done
	return w.err
}
