package main

import (
	"path/filepath"
	"sync/atomic"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
	"rangesearch/internal/server"
	"rangesearch/internal/trace"
)

// syncCounter sits directly on the FileStore in both stacks under test
// and counts the durability barriers that reach the file.
type syncCounter struct {
	eio.Store
	syncs atomic.Int64
}

func (s *syncCounter) Sync() error {
	s.syncs.Add(1)
	return s.Store.(interface{ Sync() error }).Sync()
}

func (s *syncCounter) LivePageIDs() ([]eio.PageID, error) {
	return s.Store.(eio.PageLister).LivePageIDs()
}

// fileIO is what one stack did to its file.
type fileIO struct{ reads, writes, syncs uint64 }

// runFixedSequence opens a prebuilt copy of pts, with or without the
// timing taps, serves it, drives a fixed single-connection op sequence
// (stamped with sampled TRACE envelopes when stamped), drains, and
// returns the file-level I/O.
func runFixedSequence(t *testing.T, pts []geom.Point, buffered, taps, stamped bool) (fileIO, *node) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.db")
	if err := prebuild(path, pts); err != nil {
		t.Fatal(err)
	}
	var counter *syncCounter
	n, err := openNode(path, buffered, taps, func(s eio.Store) eio.Store {
		counter = &syncCounter{Store: s}
		return counter
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.serve(); err != nil {
		t.Fatal(err)
	}
	cl, err := server.Dial(n.addr, server.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	do := func(req server.Request, i int) server.Response {
		if stamped {
			req.Trace = &server.TraceInfo{ID: trace.ID{byte(i), byte(i >> 8), 1}, Sampled: true}
		}
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != server.StatusOK {
			t.Fatalf("request %d: status %d %s", i, resp.Status, resp.Msg)
		}
		return resp
	}
	// A buffered flush must fit one WAL transaction per group commit,
	// so the buffered sequence stays short.
	steps := 40
	if buffered {
		steps = 6
	}
	for i := 0; i < steps; i++ {
		p := geom.Point{X: int64(i)*(domain/int64(steps)) + 7, Y: int64(i) * 1013}
		do(server.Request{Op: server.OpInsert, P: p}, 3*i)
		do(server.Request{Op: server.OpQuery3, Rect: geom.Rect{XLo: p.X - 1<<20, XHi: p.X + 1<<20, YLo: domain - 1<<24, YHi: geom.MaxCoord}}, 3*i+1)
		if i%2 == 0 {
			do(server.Request{Op: server.OpDelete, P: pts[i*97]}, 3*i+2)
		}
	}
	cl.Close()
	if buffered {
		if err := n.buf.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.drain(); err != nil {
		t.Fatal(err)
	}
	st := n.tx.Stats()
	return fileIO{reads: st.Reads, writes: st.Writes, syncs: uint64(counter.syncs.Load())}, n
}

// TestTracedStackIOFidelity checks that the timing taps change nothing
// the stack does to its file: with and without the taps, the stack makes
// the same block reads, block writes and fsyncs on the same op sequence,
// with and without the write buffer, and the traced stack (taps plus
// TRACE stamps) matches the untraced one on the write-through stack.
func TestTracedStackIOFidelity(t *testing.T) {
	pts := genPoints(1, 20_000)
	for _, buffered := range []bool{false, true} {
		plain, _ := runFixedSequence(t, pts, buffered, false, false)
		tapped, _ := runFixedSequence(t, pts, buffered, true, false)
		stamped, _ := runFixedSequence(t, pts, buffered, false, true)
		traced, n := runFixedSequence(t, pts, buffered, true, true)
		if plain != tapped {
			t.Errorf("buffered=%v: taps changed the file I/O: %+v without, %+v with", buffered, plain, tapped)
		}
		if stamped != traced {
			t.Errorf("buffered=%v: taps changed the file I/O of stamped requests: %+v without, %+v with", buffered, stamped, traced)
		}
		if !buffered && plain != traced {
			t.Errorf("untraced stack did %+v, traced stack %+v", plain, traced)
		}
		if buffered && plain != traced {
			// Concurrent.QueryTraced opens a fresh view per traced query,
			// where an untraced query reuses the epoch's cached one; with
			// no commit between queries that costs a header read.
			t.Logf("buffered: TRACE-stamped queries read %d more blocks than unstamped ones", traced.reads-plain.reads)
		}
		if plain.syncs == 0 || plain.writes == 0 || plain.reads == 0 {
			t.Errorf("buffered=%v: counters did not move: %+v", buffered, plain)
		}
		if got := n.file.syncs.Load(); got != int64(traced.syncs) {
			t.Errorf("buffered=%v: tap saw %d fsyncs, the file %d", buffered, got, traced.syncs)
		}
		if buffered {
			// The flush must reach core.Concurrent's batch entry point,
			// grouping the buffered ops into fewer commits than ops; the
			// per-op fallback would commit each on its own.
			_, batches := n.cont.since([2]int{})
			ops := int64(0)
			for _, b := range batches {
				ops += b
			}
			if len(batches) == 0 || int64(len(batches)) >= ops {
				t.Errorf("flush made %d group commits for %d ops; want a batched flush", len(batches), ops)
			}
		}
	}
}
