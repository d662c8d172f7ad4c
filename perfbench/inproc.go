package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/router"
	"rangesearch/internal/server"
	"rangesearch/internal/wbuf"
)

// node is one rsserve stack assembled in-process the way cmd/rsserve
// reopens a durable store — FileStore, WAL recovery, boot scrub,
// SnapStore, TraceStore, EPST, Durable writer, Concurrent, and with
// -write-buffer a wbuf.Buffered over the Concurrent — with the timing
// taps on the layer boundaries.
type node struct {
	path    string
	file    *timedStore
	tx      *eio.TxStore
	snap    *eio.SnapStore
	idx     *core.ThreeSided
	conc    *core.Concurrent
	buf     *wbuf.Buffered // nil unless buffered
	raw     server.Backend
	backend *timedBackend // nil without taps
	cont    *contention
	spans   *spanLog
	metrics *server.Metrics
	srv     *server.Server
	addr    string
	served  chan error
	drained bool
}

// openNode reopens the prebuilt store at path. With taps the timing taps
// sit on the layer boundaries; without, the stack is the plain one.
// under, when non-nil, wraps the FileStore below everything else.
func openNode(path string, buffered, taps bool, under func(eio.Store) eio.Store) (*node, error) {
	raw, err := os.ReadFile(path + ".manifest.json")
	if err != nil {
		return nil, err
	}
	var m storeManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	fs, err := eio.OpenFileStore(path)
	if err != nil {
		return nil, err
	}
	n := &node{path: path, metrics: &server.Metrics{}}
	var inner eio.Store = fs
	if under != nil {
		inner = under(fs)
	}
	opts := core.ConcurrentOptions{}
	if taps {
		n.file = newTimedStore(inner)
		inner = n.file
		n.cont = &contention{}
		n.spans = newSpanLog()
		opts.Recorder = n.cont
	}
	if n.tx, err = eio.OpenTxStore(inner, m.Anchor); err != nil {
		fs.Close()
		return nil, fmt.Errorf("WAL recovery: %w", err)
	}
	if err := bootScrub(n.tx, m.Hdr); err != nil {
		n.tx.Close()
		return nil, err
	}
	n.snap = eio.NewSnapStore(n.tx, 0)
	tracer := eio.NewTraceStore(n.snap)
	if n.idx, err = core.OpenThreeSided(tracer, m.Hdr); err != nil {
		n.snap.Close()
		return nil, err
	}
	if _, err := n.snap.Commit(); err != nil {
		n.snap.Close()
		return nil, err
	}
	hdr := m.Hdr
	opts.Tracer = tracer
	n.conc, err = core.NewConcurrent(core.NewDurable(n.idx, n.tx), n.snap,
		func(s eio.Store) (core.Index, error) { return core.OpenThreeSided(s, hdr) }, opts)
	if err != nil {
		n.snap.Close()
		return nil, err
	}
	n.raw = n.conc
	if buffered {
		if err := n.tx.Sync(); err != nil {
			n.conc.Close()
			n.snap.Close()
			return nil, err
		}
		n.buf, err = wbuf.NewBuffered(n.conc, wbuf.Options{
			MaxOps: wbuf.DefaultMaxOps, MaxAge: wbuf.DefaultMaxAge, Journal: path + ".wbuf",
		})
		if err != nil {
			n.conc.Close()
			n.snap.Close()
			return nil, err
		}
		n.raw = n.buf
	}
	if taps {
		n.backend = newTimedBackend(n.raw)
	}
	return n, nil
}

// bootScrub reclaims pages a crash stranded, as rsserve does at boot.
func bootScrub(tx *eio.TxStore, hdr eio.PageID) error {
	tmp, err := core.OpenThreeSided(tx, hdr)
	if err != nil {
		return err
	}
	reachable, err := tmp.Tree().AppendAllPages(nil)
	if err != nil {
		return err
	}
	meta, err := tx.MetaPages()
	if err != nil {
		return err
	}
	rep, err := eio.Scrub(tx, append(reachable, meta...))
	if err != nil {
		return err
	}
	if len(rep.Leaked) > 0 {
		return tx.Sync()
	}
	return nil
}

// serve starts the wire server with rsserve's default flag values.
func (n *node) serve() error {
	backend := n.raw
	var spans server.SpanRecorder
	if n.backend != nil {
		backend, spans = n.backend, n.spans
	}
	n.srv = server.New(backend, server.Config{
		MaxInFlight:    64,
		MaxBatchOps:    server.DefaultMaxBatchOps,
		IdleTimeout:    2 * time.Minute,
		WriteTimeout:   30 * time.Second,
		RequestTimeout: 10 * time.Second,
		RetryAfterHint: 2 * time.Millisecond,
		Idem:           server.IdemConfig{MaxClients: 256, Window: 512},
		Metrics:        n.metrics,
		Spans:          spans,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.addr = ln.Addr().String()
	n.served = make(chan error, 1)
	go func() { n.served <- n.srv.Serve(ln) }()
	return nil
}

// drain runs rsserve's shutdown protocol: stop serving, fold the write
// buffer into the base, commit the last epoch, check that every page is
// reachable, sync and close.
func (n *node) drain() error {
	if n.drained {
		return nil
	}
	n.drained = true
	if n.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := n.srv.Shutdown(ctx)
		cancel()
		<-n.served
		if err != nil {
			return err
		}
	}
	if n.buf != nil {
		if err := n.buf.Close(); err != nil {
			n.conc.Close()
			n.snap.Close()
			return fmt.Errorf("write buffer drain: %w", err)
		}
	}
	n.conc.Close()
	if _, err := n.snap.Commit(); err != nil {
		n.snap.Close()
		return err
	}
	reachable, err := n.idx.Tree().AppendAllPages(nil)
	if err != nil {
		n.snap.Close()
		return err
	}
	meta, err := n.tx.MetaPages()
	if err != nil {
		n.snap.Close()
		return err
	}
	rep, err := eio.FindLeaks(n.snap, append(reachable, meta...))
	if err != nil {
		n.snap.Close()
		return err
	}
	if err := n.tx.Sync(); err != nil {
		n.snap.Close()
		return err
	}
	if err := n.snap.Close(); err != nil {
		return err
	}
	if len(rep.Leaked) > 0 {
		return fmt.Errorf("%s: drain left %d leaked pages", n.path, len(rep.Leaked))
	}
	return nil
}

// startRouter fronts the shard addresses with an in-process router at
// rsrouter's default flag values.
func startRouter(spec string) (*router.Router, *router.Metrics, string, chan error, error) {
	m, err := router.ParseShards(spec)
	if err != nil {
		return nil, nil, "", nil, err
	}
	metrics := router.NewMetrics(len(m.Shards))
	rt, err := router.New(m, router.Options{
		Client:       server.ClientOptions{DialTimeout: 5 * time.Second, IOTimeout: 30 * time.Second},
		Retry:        server.RetryPolicy{MaxAttempts: 10},
		IdleTimeout:  5 * time.Minute,
		WriteTimeout: 30 * time.Second,
		Metrics:      metrics,
	})
	if err != nil {
		return nil, nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- rt.Serve(ln) }()
	return rt, metrics, ln.Addr().String(), done, nil
}

func stopRouter(rt *router.Router, done chan error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := rt.Shutdown(ctx)
	<-done
	return err
}
