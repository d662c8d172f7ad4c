package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"rangesearch/internal/geom"
	"rangesearch/internal/obs"
	"rangesearch/internal/router"
)

const (
	// routerProbeQueries is how many queries the traced run sends through
	// a one-shard router on workloads that have no router of their own.
	routerProbeQueries = 2000
	// queryProbe and updateProbe are the serial direct calls that give
	// EPST self time and allocations.
	queryProbe  = 300
	updateProbe = 150
)

// mark is a snapshot of every tap of a set of nodes.
type mark struct {
	file     fileCounts
	reads    []int64
	syncs    []int64
	cont     [][2]int
	versions uint64
	wb       obs.WriteBufferStats
	fanout   obs.HistogramSnapshot
}

type tracedRun struct {
	nodes  []*node
	router *router.Metrics // nil unless routed
}

func (t *tracedRun) mark() mark {
	var m mark
	for _, n := range t.nodes {
		c := n.file.counts()
		m.file.reads += c.reads
		m.file.writes += c.writes
		m.file.syncs += c.syncs
		m.file.ioNs += c.ioNs
		m.reads = append(m.reads, n.file.readNs.mark())
		m.syncs = append(m.syncs, n.file.syncNs.mark())
		m.cont = append(m.cont, n.cont.mark())
		m.versions += n.snap.SnapStats().VersionReads
		if n.buf != nil {
			m.wb = n.buf.WriteBufferStats()
		}
	}
	if t.router != nil {
		m.fanout = t.router.Snapshot().Fanout
	}
	return m
}

// between is what the taps saw from a to b.
type between struct {
	file              fileCounts
	readNs, syncNs    ints
	lockWait, batches ints
	versions          uint64
	wbA, wbB          obs.WriteBufferStats
	fanoutMean        float64
}

func (t *tracedRun) between(a, b mark) between {
	out := between{file: b.file.sub(a.file), versions: b.versions - a.versions, wbA: a.wb, wbB: b.wb}
	for i, n := range t.nodes {
		out.readNs = append(out.readNs, n.file.readNs.since(a.reads[i])...)
		out.syncNs = append(out.syncNs, n.file.syncNs.since(a.syncs[i])...)
		lw, bs := n.cont.since(a.cont[i])
		out.lockWait = append(out.lockWait, lw...)
		out.batches = append(out.batches, bs...)
	}
	if dc := b.fanout.Count - a.fanout.Count; dc > 0 {
		out.fanoutMean = (b.fanout.Mean*float64(b.fanout.Count) - a.fanout.Mean*float64(a.fanout.Count)) / float64(dc)
	}
	return out
}

// reqView joins one client request with what each server recorded for
// it under its trace ID.
type reqView struct {
	tracedReq
	backendNs []int64 // per node that served it
	spanWall  []int64
	phases    map[string][]int64
	reads     int64
	writes    int64
}

func (t *tracedRun) view(r tracedReq) reqView {
	v := reqView{tracedReq: r, phases: map[string][]int64{}}
	for _, n := range t.nodes {
		if d, ok := n.backend.get(r.id); ok {
			v.backendNs = append(v.backendNs, d)
		}
		if rec, ok := n.spans.get(r.id); ok {
			v.spanWall = append(v.spanWall, rec.WallNs)
			for p, ns := range rec.Phases {
				v.phases[p] = append(v.phases[p], ns)
			}
			v.reads += rec.Reads
			v.writes += rec.Writes
		}
	}
	return v
}

// phase is the request's time in phase p summed over the servers that
// recorded it; spans omit zero phases.
func (v reqView) phase(p string) int64 {
	var sum int64
	for _, ns := range v.phases[p] {
		sum += ns
	}
	return sum
}

// runTraced measures the untraced goodput on the real binaries, then
// reopens the same store(s) in-process with the timing taps and measures
// every layer.
func (b *bench) runTraced(rep *report) error {
	half := b.window / 2
	if half < time.Second {
		half = time.Second
	}
	ms := b.models()
	paths, sets := b.storeSets()
	for i, path := range paths {
		if err := prebuild(path, sets[i]); err != nil {
			return err
		}
	}

	// Untraced half: the in-process stack without taps or trace stamps.
	// For workloads that write, its warm-up also carries the store past
	// the bulk-load transient for the traced half that reopens it.
	t, addr, stop, err := b.inProc(paths, false)
	if err != nil {
		return err
	}
	ws, err := b.startWorkers(addr, ms, b.wl.tr)
	if err != nil {
		stop()
		return err
	}
	writes := int64(0)
	if b.wl.tr.writeFrac > 0 {
		writes = warmWrites
	}
	var untraced *tally
	if err = warm(ws, writes); err == nil {
		untraced, err = runWindow(ws, half)
	}
	if err == nil {
		_, err = resolveAll(ws)
	}
	for _, w := range ws {
		w.close()
	}
	correctness(rep, ws)
	if serr := stop(); err == nil && serr != nil {
		// The store cannot carry on from here (a failed write-buffer
		// drain leaves acked writes only in the journal), so the traced
		// half starts over from a fresh prebuild.
		rep.res.Correct = false
		fmt.Printf("perfbench: INCORRECT: untraced half: %v; the traced half starts from a fresh store\n", serr)
		ms = b.models()
		for i, path := range paths {
			if err := prebuild(path, sets[i]); err != nil {
				return err
			}
		}
	}
	if err != nil {
		return err
	}

	// Traced half: the same stack with the taps, on the stores as the
	// untraced half left them.
	if t, addr, stop, err = b.inProc(paths, true); err != nil {
		return err
	}
	defer stop()
	tr := b.wl.tr
	tr.traced = true
	if ws, err = b.startWorkers(addr, ms, tr); err != nil {
		return err
	}
	defer func() {
		for _, w := range ws {
			w.close()
		}
	}()
	if err := warm(ws, 0); err != nil {
		return err
	}
	m0 := t.mark()
	win, err := runWindow(ws, half)
	if err != nil {
		return err
	}
	m1 := t.mark()
	wp, wm0, wm1 := win, m0, m1 // the phase whose writes the write metrics use
	if b.wl.tr.writeFrac == 0 {
		if wp, err = runProbe(ws); err != nil {
			return err
		}
		wm0, wm1 = m1, t.mark()
	}
	if _, err := resolveAll(ws); err != nil {
		return err
	}
	winTaps, wTaps := t.between(m0, m1), t.between(wm0, wm1)

	var routed []reqView
	fanout := winTaps.fanoutMean
	if b.wl.routed {
		for _, r := range win.traced {
			if r.kind == opQuery {
				routed = append(routed, t.view(r))
			}
		}
	} else if routed, fanout, err = b.routerProbe(t, ms); err != nil {
		return err
	}
	qself, qallocs, qbytes, err := b.queryProbe(t.nodes[0], ms[0])
	if err != nil {
		return err
	}
	var uself ints
	if !b.wl.buffered {
		if uself, err = b.updateProbe(t.nodes[0], ms[0]); err != nil {
			return err
		}
	}
	var merge ints
	if b.wl.buffered {
		if merge, err = b.mergeProbe(t.nodes[0], ms[0]); err != nil {
			return err
		}
	}
	correctness(rep, ws)
	for _, w := range ws {
		w.close()
	}
	ws = nil

	// Per-request joins.
	var overhead, replyFlush, coreQuery, queueWait, writeExec, walAppend, updPages ints
	var queryReads, logicalWrites int64
	queries := 0
	for _, r := range win.traced {
		v := t.view(r)
		if !b.wl.routed && len(v.backendNs) == 1 {
			overhead = append(overhead, r.ns-v.backendNs[0])
		}
		if b.wl.routed {
			for i := range v.spanWall {
				if i < len(v.backendNs) {
					overhead = append(overhead, v.spanWall[i]-v.backendNs[i])
				}
			}
		}
		replyFlush = append(replyFlush, v.phases["reply_flush"]...)
		if r.kind == opQuery {
			coreQuery = append(coreQuery, v.backendNs...)
			queryReads += v.reads
			queries++
		}
	}
	for _, r := range wp.traced {
		if r.kind == opQuery {
			continue
		}
		v := t.view(r)
		queueWait = append(queueWait, v.phase("queue"))
		writeExec = append(writeExec, v.phase("execute"))
		if r.ok {
			walAppend = append(walAppend, v.phase("wal_append"))
			logicalWrites += v.writes
		}
		updPages = append(updPages, v.writes)
	}
	var hop, shardWait ints
	for _, v := range routed {
		if len(v.backendNs) == 0 || len(v.spanWall) == 0 {
			continue
		}
		hop = append(hop, v.ns-ints(v.backendNs).max())
		shardWait = append(shardWait, ints(v.spanWall).max())
	}

	// Drain in-process and check the stores against the model.
	if drainErr := stop(); drainErr != nil {
		rep.res.Correct = false
		fmt.Printf("perfbench: INCORRECT: %v\n", drainErr)
	}
	live, stored := 0, 0
	for _, m := range ms {
		live += m.len()
	}
	for _, s := range paths {
		n, err := checkStore(s)
		if err != nil {
			rep.res.Correct = false
			fmt.Printf("perfbench: INCORRECT: %v\n", err)
		}
		stored += n
	}
	if stored != live {
		rep.res.Correct = false
		fmt.Printf("perfbench: INCORRECT: stores hold %d points, the model %d\n", stored, live)
	}

	rep.res.Attempted = untraced.attempted + win.attempted
	rep.res.Failed = untraced.failed + win.failed
	if wp != win {
		rep.res.Attempted += wp.attempted
		rep.res.Failed += wp.failed
	}
	fmt.Printf("perfbench: in-process: untraced %s: %d ok; traced %s: %d requests, %d failed (wal_overflow=%d busy=%d timeout=%d)\n",
		half, untraced.succeeded(), half, win.attempted, win.failed, win.overflow, win.busy, win.timeouts)
	writeSrc := "window writes"
	if wp != win {
		writeSrc = fmt.Sprintf("post-window probe, %d writes at depth 1", wp.attempted)
	}
	routerSrc := fmt.Sprintf("%d routed window queries", len(routed))
	if !b.wl.routed {
		routerSrc = fmt.Sprintf("probe: %d queries through a one-shard in-process router", len(routed))
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	msec := func(ns int64) float64 { return float64(ns) / 1e6 }
	frac := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	acks := wp.writesOK

	fmt.Println("perfbench: per-layer (traced in-process run)")
	rep.add("trace_overhead_frac", frac(win.succeeded(), untraced.succeeded()), "ratio",
		fmt.Sprintf("traced goodput %d / untraced %d over %s each", win.succeeded(), untraced.succeeded(), half))
	overheadSrc := "client RTT - backend call"
	if b.wl.routed {
		overheadSrc = "shard span wall - shard backend call"
	}
	rep.add("server.overhead_p50_us", us(overhead.quantile(0.5)), "us", fmt.Sprintf("%s, n=%d", overheadSrc, len(overhead)))
	rep.add("server.reply_flush_p50_us", us(replyFlush.quantile(0.5)), "us", fmt.Sprintf("span reply_flush, n=%d", len(replyFlush)))
	rep.add("server.busy_frac", frac(win.busy, win.attempted), "ratio", fmt.Sprintf("%d BUSY / %d", win.busy, win.attempted))
	rep.add("router.hop_p50_us", us(hop.quantile(0.5)), "us", "RTT - slowest shard backend call; "+routerSrc)
	rep.add("router.fanout_mean", fanout, "shards", routerSrc)
	rep.add("router.shard_wait_p99_ms", msec(shardWait.quantile(0.99)), "ms", fmt.Sprintf("slowest shard span wall, n=%d", len(shardWait)))
	rep.add("core.query_p50_us", us(coreQuery.quantile(0.5)), "us", fmt.Sprintf("backend QueryTraced, n=%d", len(coreQuery)))
	rep.add("core.ops_per_commit_mean", wTaps.batches.mean(), "ops", fmt.Sprintf("%d group commits, %s", len(wTaps.batches), writeSrc))
	rep.add("core.queue_wait_p99_ms", msec(queueWait.quantile(0.99)), "ms", fmt.Sprintf("span queue, n=%d", len(queueWait)))
	rep.add("core.write_execute_p50_us", us(writeExec.quantile(0.5)), "us", fmt.Sprintf("span execute, n=%d", len(writeExec)))
	rep.add("core.lock_wait_p99_us", us(wTaps.lockWait.quantile(0.99)), "us", fmt.Sprintf("leadership waits, n=%d", len(wTaps.lockWait)))
	rep.add("epst.query_reads_mean", frac(int(queryReads), queries), "blocks", fmt.Sprintf("span reads over %d queries", queries))
	rep.add("epst.query_allocs_mean", qallocs, "allocs", fmt.Sprintf("direct probe, %d snapshot queries", queryProbe))
	rep.add("epst.query_alloc_bytes_mean", qbytes, "B", "direct probe")
	rep.add("epst.query_self_p50_us", us(qself.quantile(0.5)), "us", "direct probe: call - file I/O time")
	rep.add("epst.update_pages_mean", updPages.mean(), "pages", fmt.Sprintf("span writes per write, n=%d", len(updPages)))
	rep.add("epst.update_pages_max", float64(updPages.max()), "pages", writeSrc)
	rep.add("epst.update_self_p50_us", us(uself.quantile(0.5)), "us", fmt.Sprintf("direct probe: %d Concurrent writes, call - file I/O time", len(uself)))
	rep.add("eio.read_p50_us", us(winTaps.readNs.quantile(0.5)), "us", fmt.Sprintf("file reads, n=%d", len(winTaps.readNs)))
	rep.add("eio.fsyncs_per_ack", frac(int(wTaps.file.syncs), acks), "fsyncs", fmt.Sprintf("%d fsyncs / %d acked writes", wTaps.file.syncs, acks))
	rep.add("eio.fsync_p50_ms", msec(wTaps.syncNs.quantile(0.5)), "ms", fmt.Sprintf("n=%d", len(wTaps.syncNs)))
	rep.add("eio.wal_append_p50_us", us(walAppend.quantile(0.5)), "us", fmt.Sprintf("span wal_append of acked writes, n=%d", len(walAppend)))
	rep.add("eio.write_amp", frac(int(wTaps.file.writes), int(logicalWrites)), "ratio", fmt.Sprintf("%d file page writes / %d tree page writes of acked writes", wTaps.file.writes, logicalWrites))
	rep.add("eio.tx_overflow_frac", frac(wp.overflow, len(wp.write)), "ratio", fmt.Sprintf("%d WAL-overflow ERR / %d writes", wp.overflow, len(wp.write)))
	rep.add("eio.version_reads_frac", frac(int(winTaps.versions), int(queryReads)), "ratio", fmt.Sprintf("%d version-chain reads / %d query block reads", winTaps.versions, queryReads))
	if b.wl.buffered {
		b.wbufMetrics(rep, t, win, winTaps, merge)
	}
	return nil
}

// inProc opens the workload's stores in-process and serves them, with
// the timing taps when taps is set, behind an in-process router on the
// routed workload. stop stops the router, then drains every node.
func (b *bench) inProc(paths []string, taps bool) (*tracedRun, string, func() error, error) {
	t := &tracedRun{}
	var stopRt func() error
	stop := func() error {
		var first error
		if stopRt != nil {
			first = stopRt()
			stopRt = nil
		}
		for _, n := range t.nodes {
			if err := n.drain(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for _, path := range paths {
		n, err := openNode(path, b.wl.buffered, taps, nil)
		if err != nil {
			stop()
			return nil, "", nil, err
		}
		t.nodes = append(t.nodes, n)
		if err := n.serve(); err != nil {
			stop()
			return nil, "", nil, err
		}
	}
	addr := t.nodes[0].addr
	if b.wl.routed {
		rt, rm, raddr, done, err := startRouter(fmt.Sprintf("x<%d@%s,rest@%s", b.shardSplit(), t.nodes[0].addr, t.nodes[1].addr))
		if err != nil {
			stop()
			return nil, "", nil, err
		}
		stopRt = func() error { return stopRouter(rt, done) }
		t.router = rm
		addr = raddr
	}
	return t, addr, stop, nil
}

// wbufMetrics reports the write-buffer layer of a buffered run. Flush
// timings come from the flush phase of the traced writes that triggered
// a size flush; age-triggered flushes run on the buffer's own goroutine
// and are counted in flush_ops_mean but not timed.
func (b *bench) wbufMetrics(rep *report, t *tracedRun, win *tally, taps between, merge ints) {
	var flush ints
	failed := 0
	for _, r := range win.traced {
		if r.kind == opQuery {
			continue
		}
		if f := t.view(r).phases["flush"]; len(f) > 0 {
			flush = append(flush, f...)
			if !r.ok {
				failed++
			}
		}
	}
	flushes := taps.wbB.Flushes - taps.wbA.Flushes
	ops := taps.wbB.FlushedOps - taps.wbA.FlushedOps
	rep.add("wbuf.flush_p99_ms", float64(flush.quantile(0.99))/1e6, "ms", fmt.Sprintf("size-triggered flushes, n=%d", len(flush)))
	rep.add("wbuf.flush_max_ms", float64(flush.max())/1e6, "ms", "")
	rep.add("wbuf.flush_ops_mean", float64(ops)/float64(max(flushes, 1)), "ops", fmt.Sprintf("%d completed flushes, %d ops", flushes, ops))
	rep.add("wbuf.flush_fail_frac", float64(failed)/float64(max(len(flush), 1)), "ratio", fmt.Sprintf("%d of %d size-triggered flushes failed", failed, len(flush)))
	rep.add("wbuf.merge_p50_us", float64(merge.quantile(0.5))/1e3, "us", fmt.Sprintf("Buffered.Query - Concurrent.Query, n=%d", len(merge)))
	rep.add("wbuf.journal_fsyncs_per_ack", float64(taps.wbB.JournalSyncs-taps.wbA.JournalSyncs)/float64(max(win.writesOK, 1)), "fsyncs", fmt.Sprintf("%d acked writes", win.writesOK))
	rep.add("wbuf.probes_per_write", float64(taps.wbB.Probes-taps.wbA.Probes)/float64(max(len(win.write), 1)), "probes", fmt.Sprintf("%d writes", len(win.write)))
}

// routerProbe sends routerProbeQueries queries through a one-shard
// in-process router in front of node 0 and returns them with the
// router's mean fan-out.
func (b *bench) routerProbe(t *tracedRun, ms []*model) ([]reqView, float64, error) {
	rt, rm, addr, done, err := startRouter("rest@" + t.nodes[0].addr)
	if err != nil {
		return nil, 0, err
	}
	defer stopRouter(rt, done)
	w, err := newWorker(addr, b.seed*1000+99, b.seed*1000+99, ms[0], ms, traffic{depth: 1, wideQueries: true, traced: true, n: numPoints}, &atomic.Int64{})
	if err != nil {
		return nil, 0, err
	}
	defer w.close()
	tl := &tally{}
	if err := w.run(func() bool { return tl.attempted >= routerProbeQueries }, func(time.Time) *tally { return tl }); err != nil {
		return nil, 0, err
	}
	if w.bad != "" {
		return nil, 0, fmt.Errorf("router probe: %s", w.bad)
	}
	out := make([]reqView, 0, len(tl.traced))
	for _, r := range tl.traced {
		out = append(out, t.view(r))
	}
	return out, rm.Snapshot().Fanout.Mean, nil
}

// queryProbe times queryProbe serial snapshot queries on node n: self
// time (call minus file I/O time) and heap allocations per query.
func (b *bench) queryProbe(n *node, m *model) (self ints, allocs, bytes float64, err error) {
	snap, err := n.conc.Snapshot()
	if err != nil {
		return nil, 0, 0, err
	}
	defer snap.Close()
	w := &worker{rng: rand.New(rand.NewSource(b.seed*1000 + 98)), m: m, tr: traffic{wideQueries: !b.wl.routed && b.wl.tr.wideQueries, n: numPoints}}
	var before, after runtime.MemStats
	var dst []geom.Point
	for i := 0; i < queryProbe; i++ {
		r := w.next(0).req.Rect
		runtime.ReadMemStats(&before)
		io0 := n.file.ioNs.Load()
		start := time.Now()
		dst, err = snap.Query(dst[:0], r)
		d := time.Since(start)
		io := n.file.ioNs.Load() - io0
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, 0, 0, err
		}
		self = append(self, int64(d)-io)
		allocs += float64(after.Mallocs - before.Mallocs)
		bytes += float64(after.TotalAlloc - before.TotalAlloc)
	}
	return self, allocs / queryProbe, bytes / queryProbe, nil
}

// updateProbe inserts and then deletes updateProbe fresh points of m's
// stripe through node n's Concurrent, serially, and returns each call's
// self time (call minus file I/O time, fsyncs included in the I/O).
func (b *bench) updateProbe(n *node, m *model) (ints, error) {
	rng := rand.New(rand.NewSource(b.seed*1000 + 97))
	hi := m.hi
	if b.wl.routed {
		hi = min(hi, b.shardSplit())
	}
	var self ints
	timed := func(fn func() error) error {
		io0 := n.file.ioNs.Load()
		start := time.Now()
		err := fn()
		self = append(self, int64(time.Since(start))-(n.file.ioNs.Load()-io0))
		return err
	}
	for i := 0; i < updateProbe; i++ {
		p := freshPoint(rng, m.lo, hi, func(p geom.Point) bool { return !m.has(p) })
		if err := timed(func() error { return n.conc.Insert(p) }); err != nil {
			continue // a failed write-through group commit rolls back
		}
		var found bool
		if err := timed(func() (err error) { found, err = n.conc.Delete(p); return err }); err != nil || !found {
			m.insert(p) // the point stays live; the final count check sees it
		}
	}
	return self, nil
}

// mergeProbe times Buffered.Query against Concurrent.Query on the same
// windows; the difference is the merge-on-read cost.
func (b *bench) mergeProbe(n *node, m *model) (ints, error) {
	w := &worker{rng: rand.New(rand.NewSource(b.seed*1000 + 96)), m: m, tr: traffic{n: numPoints}}
	var diff ints
	var dst []geom.Point
	for i := 0; i < queryProbe; i++ {
		r := w.next(0).req.Rect
		start := time.Now()
		var err error
		dst, err = n.buf.Query(dst[:0], r)
		bt := time.Since(start)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		if _, err := n.conc.Query(dst[:0], r); err != nil {
			return nil, err
		}
		diff = append(diff, int64(bt-time.Since(start)))
	}
	return diff, nil
}
