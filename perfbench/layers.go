package main

import (
	"sync"
	"sync/atomic"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
	"rangesearch/internal/server"
	"rangesearch/internal/trace"
)

// This file holds the benchmark's timing taps. Each one sits on a layer
// boundary the program already exposes — the eio.Store under TxStore,
// the server.Backend under the server, core's ContentionRecorder and
// the server's SpanRecorder — and none changes what the layer does.

// sampleBuf keeps up to cap(ns) raw duration samples without locking.
type sampleBuf struct {
	n  atomic.Int64
	ns []int64
}

func newSampleBuf(capacity int) *sampleBuf { return &sampleBuf{ns: make([]int64, capacity)} }

func (b *sampleBuf) add(d time.Duration) {
	if i := b.n.Add(1) - 1; i < int64(len(b.ns)) {
		b.ns[i] = int64(d)
	}
}

// mark returns the current sample position, for since.
func (b *sampleBuf) mark() int64 { return b.n.Load() }

// since returns the samples recorded after mark m.
func (b *sampleBuf) since(m int64) ints {
	end := b.n.Load()
	if end > int64(len(b.ns)) {
		end = int64(len(b.ns))
	}
	if m > end {
		m = end
	}
	return append(ints(nil), b.ns[m:end]...)
}

// timedStore is the file-level tap: it sits directly on the FileStore,
// under TxStore, and times every block read, block write and fsync.
// TxStore type-asserts its inner store for Sync and scrubbing asserts
// for eio.PageLister, so both are forwarded explicitly.
type timedStore struct {
	eio.Store
	reads, writes, syncs atomic.Int64
	ioNs                 atomic.Int64 // total time in Read, Write and Sync
	readNs, syncNs       *sampleBuf
}

func newTimedStore(inner eio.Store) *timedStore {
	return &timedStore{Store: inner, readNs: newSampleBuf(2 << 20), syncNs: newSampleBuf(1 << 16)}
}

func (s *timedStore) Read(id eio.PageID, buf []byte) error {
	start := time.Now()
	err := s.Store.Read(id, buf)
	d := time.Since(start)
	s.reads.Add(1)
	s.ioNs.Add(int64(d))
	s.readNs.add(d)
	return err
}

func (s *timedStore) Write(id eio.PageID, buf []byte) error {
	start := time.Now()
	err := s.Store.Write(id, buf)
	s.writes.Add(1)
	s.ioNs.Add(int64(time.Since(start)))
	return err
}

// Sync forwards the durability barrier; without it TxStore would
// silently skip every fsync.
func (s *timedStore) Sync() error {
	start := time.Now()
	var err error
	if sy, ok := s.Store.(interface{ Sync() error }); ok {
		err = sy.Sync()
	}
	d := time.Since(start)
	s.syncs.Add(1)
	s.ioNs.Add(int64(d))
	s.syncNs.add(d)
	return err
}

// LivePageIDs forwards page enumeration for scrubbing and leak checks.
func (s *timedStore) LivePageIDs() ([]eio.PageID, error) {
	return s.Store.(eio.PageLister).LivePageIDs()
}

// fileCounts is a snapshot of the file-level tap.
type fileCounts struct{ reads, writes, syncs, ioNs int64 }

func (s *timedStore) counts() fileCounts {
	return fileCounts{s.reads.Load(), s.writes.Load(), s.syncs.Load(), s.ioNs.Load()}
}

func (a fileCounts) sub(b fileCounts) fileCounts {
	return fileCounts{a.reads - b.reads, a.writes - b.writes, a.syncs - b.syncs, a.ioNs - b.ioNs}
}

// contention is core's ContentionRecorder, keeping raw samples.
type contention struct {
	mu       sync.Mutex
	lockWait ints
	batches  ints
}

func (c *contention) RecordLockWait(d time.Duration) {
	c.mu.Lock()
	c.lockWait = append(c.lockWait, int64(d))
	c.mu.Unlock()
}

func (c *contention) RecordBatch(size int, _ time.Duration) {
	c.mu.Lock()
	c.batches = append(c.batches, int64(size))
	c.mu.Unlock()
}

// mark and since slice out one phase's samples.
func (c *contention) mark() [2]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return [2]int{len(c.lockWait), len(c.batches)}
}

func (c *contention) since(m [2]int) (lockWait, batches ints) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append(ints(nil), c.lockWait[m[0]:]...), append(ints(nil), c.batches[m[1]:]...)
}

// spanLog is the server's SpanRecorder: every finished span by trace ID.
type spanLog struct {
	mu   sync.Mutex
	recs map[string]trace.Record
}

func newSpanLog() *spanLog { return &spanLog{recs: make(map[string]trace.Record)} }

func (l *spanLog) RecordSpan(r trace.Record) {
	l.mu.Lock()
	l.recs[r.TraceID] = r
	l.mu.Unlock()
}

func (l *spanLog) get(id trace.ID) (trace.Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.recs[id.String()]
	return r, ok
}

// timedBackend is the server→engine tap: it times each call the server
// makes into its Backend, keyed by the request's trace ID.
type timedBackend struct {
	server.Backend
	mu    sync.Mutex
	calls map[trace.ID]int64
}

func newTimedBackend(b server.Backend) *timedBackend {
	return &timedBackend{Backend: b, calls: make(map[trace.ID]int64)}
}

func (t *timedBackend) note(sp *trace.Span, start time.Time) {
	if sp == nil {
		return
	}
	d := int64(time.Since(start))
	t.mu.Lock()
	t.calls[sp.ID()] = d
	t.mu.Unlock()
}

func (t *timedBackend) get(id trace.ID) (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.calls[id]
	return d, ok
}

func (t *timedBackend) InsertTraced(p geom.Point, sp *trace.Span) error {
	start := time.Now()
	err := t.Backend.InsertTraced(p, sp)
	t.note(sp, start)
	return err
}

func (t *timedBackend) DeleteTraced(p geom.Point, sp *trace.Span) (bool, error) {
	start := time.Now()
	found, err := t.Backend.DeleteTraced(p, sp)
	t.note(sp, start)
	return found, err
}

func (t *timedBackend) QueryTraced(dst []geom.Point, q geom.Rect, sp *trace.Span) ([]geom.Point, error) {
	start := time.Now()
	out, err := t.Backend.QueryTraced(dst, q, sp)
	t.note(sp, start)
	return out, err
}

func (t *timedBackend) ApplyBatchTraced(ops []core.BatchOp, sp *trace.Span) []core.BatchResult {
	start := time.Now()
	res := t.Backend.ApplyBatchTraced(ops, sp)
	t.note(sp, start)
	return res
}
