package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rangesearch/internal/geom"
	"rangesearch/internal/server"
	"rangesearch/internal/trace"
)

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opDelete
)

// traffic is one workload's request mix.
type traffic struct {
	writeFrac float64 // share of requests that are writes (half inserts, half deletes)
	depth     int     // requests outstanding per connection
	// wideQueries draws QUERY3 windows over the whole domain instead of
	// the connection's own stripe; only safe when nothing writes.
	wideQueries bool
	// buffered marks a write-buffered backend, where a write answered ERR
	// may already be staged, so its outcome is unknown rather than "not
	// applied".
	buffered bool
	// traced stamps every request with a sampled TRACE envelope.
	traced bool
	n      int // live points, for the QUERY3 y-bound
}

type sent struct {
	kind opKind
	req  server.Request
	t    time.Time
}

// tally accumulates one phase's outcomes over the responses that arrive
// inside its window.
type tally struct {
	query, write dist
	attempted    int
	failed       int
	busy         int
	timeouts     int
	overflow     int // ERR "transaction exceeds WAL capacity"
	otherErr     int
	transport    int
	writesOK     int
	traced       []tracedReq
	// perSec counts successes and failures by the second of the window
	// they arrived in, to show stalls and drift inside the window.
	start  time.Time
	perSec [][2]int
}

type tracedReq struct {
	id   trace.ID
	kind opKind
	ns   int64
	ok   bool
}

func (t *tally) merge(o *tally) {
	t.query = append(t.query, o.query...)
	t.write = append(t.write, o.write...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.busy += o.busy
	t.timeouts += o.timeouts
	t.overflow += o.overflow
	t.otherErr += o.otherErr
	t.transport += o.transport
	t.writesOK += o.writesOK
	t.traced = append(t.traced, o.traced...)
	for len(t.perSec) < len(o.perSec) {
		t.perSec = append(t.perSec, [2]int{})
	}
	for i, c := range o.perSec {
		t.perSec[i][0] += c[0]
		t.perSec[i][1] += c[1]
	}
}

func (t *tally) succeeded() int { return t.attempted - t.failed }

// worker drives one connection in a closed loop and checks every reply
// against the exact model of the x-stripe it owns: only this connection
// writes in its stripe, and the server answers one connection's requests
// in order, so when a reply is read the model holds exactly the writes
// the server executed before it.
type worker struct {
	addr   string
	cl     *server.Client
	rng    *rand.Rand
	seed   int64    // request stream after warm-up
	m      *model   // own stripe
	models []*model // every stripe, for wide queries
	tr     traffic

	credit  float64 // write share accumulated toward the next write
	nwrites int
	fifo    []sent
	pending map[geom.Point]int  // points with a write in flight
	unknown map[geom.Point]bool // points whose last write outcome is unknown
	writes  *atomic.Int64       // write replies read, shared by all workers

	bad    string // first correctness failure
	badN   int
	result []geom.Point
	want   []geom.Point
}

// newWorker dials addr. The worker draws requests from warmSeed until
// warm-up ends and from seed afterwards.
func newWorker(addr string, warmSeed, seed int64, own *model, all []*model, tr traffic, writes *atomic.Int64) (*worker, error) {
	cl, err := server.Dial(addr, server.ClientOptions{})
	if err != nil {
		return nil, err
	}
	return &worker{
		addr: addr, cl: cl, rng: rand.New(rand.NewSource(warmSeed)), seed: seed,
		m: own, models: all, tr: tr, writes: writes,
		pending: make(map[geom.Point]int),
		unknown: make(map[geom.Point]bool),
	}, nil
}

func (w *worker) close() { w.cl.Close() }

func (w *worker) fail(format string, args ...interface{}) {
	w.badN++
	if w.bad == "" {
		w.bad = fmt.Sprintf(format, args...)
	}
}

func (w *worker) writable(p geom.Point) bool {
	return w.pending[p] == 0 && !w.unknown[p]
}

// next draws the next request. The mix is interleaved, not drawn: a
// write whenever the accumulated write share reaches one (so 0.8 gives
// query, four writes, query, ...), and writes alternate insert, delete.
// Every query then waits behind the same number of pipelined writes, and
// its latency spread is the servers', not the dice's.
func (w *worker) next(writeFrac float64) sent {
	if w.credit += writeFrac; w.credit >= 1 {
		w.credit--
		w.nwrites++
		var s sent
		if w.nwrites%2 == 1 {
			p := freshPoint(w.rng, w.m.lo, w.m.hi, func(p geom.Point) bool { return !w.m.has(p) && w.writable(p) })
			s = sent{kind: opInsert, req: server.Request{Op: server.OpInsert, P: p}}
		} else {
			p := w.m.randomLive(w.rng)
			for !w.writable(p) {
				p = w.m.randomLive(w.rng)
			}
			s = sent{kind: opDelete, req: server.Request{Op: server.OpDelete, P: p}}
		}
		w.pending[s.req.P]++
		return s
	}
	lo, hi := w.m.lo, w.m.hi
	if w.tr.wideQueries {
		lo, hi = 0, domain
	}
	return sent{kind: opQuery, req: server.Request{Op: server.OpQuery3, Rect: queryRect(w.rng, lo, hi, w.tr.n)}}
}

func (w *worker) send(s sent) error {
	if w.tr.traced {
		var id trace.ID
		binary.LittleEndian.PutUint64(id[:8], w.rng.Uint64())
		binary.LittleEndian.PutUint64(id[8:], w.rng.Uint64())
		s.req.Trace = &server.TraceInfo{ID: id, Sampled: true}
	}
	s.t = time.Now()
	if err := w.cl.Send(s.req); err != nil {
		return err
	}
	w.fifo = append(w.fifo, s)
	return nil
}

// settle folds one reply (or transport failure) into the model, checks
// it, and records it in t when t is non-nil.
func (w *worker) settle(s sent, resp server.Response, err error, t *tally) {
	lat := time.Since(s.t).Nanoseconds()
	failed := true
	unknownOutcome := false
	var overflow, busy, timeout, transport, otherErr bool
	switch {
	case err != nil:
		transport, unknownOutcome = true, true
	case resp.Status == server.StatusOK:
		failed = false
		switch s.kind {
		case opQuery:
			w.check(s.req.Rect, resp.Points)
		case opInsert:
			if resp.Duplicate {
				w.fail("INSERT %v answered duplicate but the point was not live", s.req.P)
			}
			w.m.insert(s.req.P)
		case opDelete:
			if !resp.Found {
				w.fail("DELETE %v answered not-found but the point was live", s.req.P)
			}
			w.m.remove(s.req.P)
		}
	case resp.Status == server.StatusBusy:
		busy = true // refused at admission: never executed
	case resp.Status == server.StatusTimeout:
		timeout, unknownOutcome = true, true
	case resp.Status == server.StatusErr:
		overflow = strings.Contains(resp.Msg, "exceeds WAL capacity")
		otherErr = !overflow
		// A write-through group commit that fails rolls back; a buffered
		// write that fails may already be staged.
		unknownOutcome = w.tr.buffered
	default:
		otherErr, unknownOutcome = true, true
	}
	if s.kind != opQuery {
		w.writes.Add(1)
		p := s.req.P
		if w.pending[p]--; w.pending[p] <= 0 {
			delete(w.pending, p)
		}
		if unknownOutcome {
			w.unknown[p] = true
		}
	}
	if t == nil {
		return
	}
	t.attempted++
	if failed {
		t.failed++
	}
	if !t.start.IsZero() {
		sec := int(time.Since(t.start) / time.Second)
		for len(t.perSec) <= sec {
			t.perSec = append(t.perSec, [2]int{})
		}
		if failed {
			t.perSec[sec][1]++
		} else {
			t.perSec[sec][0]++
		}
	}
	var at int64
	if !t.start.IsZero() {
		at = int64(time.Since(t.start))
	}
	if s.kind == opQuery {
		t.query = append(t.query, sample{ns: lat, at: at, failed: failed})
	} else {
		t.write = append(t.write, sample{ns: lat, at: at, failed: failed})
		if !failed {
			t.writesOK++
		}
	}
	switch {
	case busy:
		t.busy++
	case timeout:
		t.timeouts++
	case overflow:
		t.overflow++
	case transport:
		t.transport++
	case otherErr:
		t.otherErr++
	}
	if s.req.Trace != nil {
		t.traced = append(t.traced, tracedReq{id: s.req.Trace.ID, kind: s.kind, ns: lat, ok: !failed})
	}
}

// check compares a QUERY3 reply with the model, ignoring points whose
// state is unknown.
func (w *worker) check(r geom.Rect, got []geom.Point) {
	w.want = w.want[:0]
	for _, m := range w.models {
		if m.hi > r.XLo && m.lo <= r.XHi && (m == w.m || w.tr.wideQueries) {
			w.want = m.query(w.want, r.XLo, r.XHi, r.YLo)
		}
	}
	w.result = w.result[:0]
	for _, p := range got {
		if !r.Contains(p) {
			w.fail("QUERY3 %+v returned %v outside the window", r, p)
			return
		}
		if !w.unknown[p] {
			w.result = append(w.result, p)
		}
	}
	k := 0
	for _, p := range w.want {
		if !w.unknown[p] {
			w.want[k] = p
			k++
		}
	}
	w.want = w.want[:k]
	if len(w.want) != len(w.result) {
		w.fail("QUERY3 %+v returned %d points, model has %d", r, len(w.result), len(w.want))
		return
	}
	sortPoints(w.want)
	sortPoints(w.result)
	for i := range w.want {
		if w.want[i] != w.result[i] {
			w.fail("QUERY3 %+v returned %v where the model has %v", r, w.result[i], w.want[i])
			return
		}
	}
}

// recvOne reads the oldest outstanding reply. A transport failure makes
// every outstanding request fail with an unknown outcome and redials.
func (w *worker) recvOne(record func(time.Time) *tally) error {
	resp, err := w.cl.Recv()
	s := w.fifo[0]
	w.fifo = w.fifo[1:]
	w.settle(s, resp, err, record(time.Now()))
	if err == nil {
		return nil
	}
	for _, s := range w.fifo {
		w.settle(s, server.Response{}, err, record(time.Now()))
	}
	w.fifo = w.fifo[:0]
	w.cl.Close()
	cl, derr := server.Dial(w.addr, server.ClientOptions{})
	if derr != nil {
		return fmt.Errorf("redial %s after %v: %w", w.addr, err, derr)
	}
	w.cl = cl
	return nil
}

// run keeps tr.depth requests outstanding until done reports true,
// recording each reply in the tally record returns for its arrival time,
// then drains the pipeline.
func (w *worker) run(done func() bool, record func(time.Time) *tally) error {
	for !done() && w.bad == "" {
		for len(w.fifo) < w.tr.depth {
			if err := w.send(w.next(w.tr.writeFrac)); err != nil {
				return err
			}
		}
		if err := w.cl.Flush(); err != nil {
			return err
		}
		if err := w.recvOne(record); err != nil {
			return err
		}
	}
	for len(w.fifo) > 0 {
		if err := w.recvOne(record); err != nil {
			return err
		}
	}
	return nil
}

// runWrites issues n writes one at a time and records all of them.
func (w *worker) runWrites(n int, t *tally) error {
	record := func(time.Time) *tally { return t }
	for i := 0; i < n && w.bad == ""; i++ {
		if err := w.send(w.next(1)); err != nil {
			return err
		}
		if err := w.recvOne(record); err != nil {
			return err
		}
	}
	return nil
}

// resolve settles every unknown point by asking the server, once no
// request is in flight anywhere.
func (w *worker) resolve() (int, error) {
	for p := range w.unknown {
		pts, err := w.cl.Query3(p.X, p.X, p.Y)
		if err != nil {
			return 0, fmt.Errorf("resolve %v: %w", p, err)
		}
		present := false
		for _, q := range pts {
			present = present || q == p
		}
		if present {
			w.m.insert(p)
		} else {
			w.m.remove(p)
		}
	}
	n := len(w.unknown)
	w.unknown = make(map[geom.Point]bool)
	return n, nil
}

// runAll runs fn on every worker concurrently and returns the first error.
func runAll(ws []*worker, fn func(i int, w *worker) error) error {
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			errs[i] = fn(i, w)
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
