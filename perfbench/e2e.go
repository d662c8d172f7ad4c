package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// deployment is the set of server processes one run measures: one
// rsserve, or two rsserve shards behind one rsrouter.
type deployment struct {
	procs  []*proc // shards first, router last
	stores []string
	addr   string // where clients connect
}

// deploy prebuilds the workload's store(s) and boots the servers at
// their default flags, setting only -store/-addr/-write-buffer/-shards.
func (b *bench) deploy(tag string) (*deployment, error) {
	paths, sets := b.storeSets()
	d := &deployment{stores: paths}
	for i, path := range paths {
		if err := prebuild(path, sets[i]); err != nil {
			return nil, err
		}
	}
	for i, path := range paths {
		args := []string{"-store", path}
		if b.wl.buffered {
			args = append(args, "-write-buffer")
		}
		p, err := startProc(b.place, filepath.Join(b.bin, "rsserve"), filepath.Join(b.dir, fmt.Sprintf("rsserve%d-%s.log", i, tag)), args...)
		if err != nil {
			d.kill()
			return nil, err
		}
		d.procs = append(d.procs, p)
		d.addr = p.addr
	}
	if b.wl.routed {
		spec := fmt.Sprintf("x<%d@%s,rest@%s", b.shardSplit(), d.procs[0].addr, d.procs[1].addr)
		p, err := startProc(b.place, filepath.Join(b.bin, "rsrouter"), filepath.Join(b.dir, "rsrouter-"+tag+".log"), "-shards", spec)
		if err != nil {
			d.kill()
			return nil, err
		}
		d.procs = append(d.procs, p)
		d.addr = p.addr
	}
	return d, nil
}

func (d *deployment) kill() {
	for _, p := range d.procs {
		p.kill()
	}
}

// stop drains the router first, then the shards.
func (d *deployment) stop() error {
	var first error
	for i := len(d.procs) - 1; i >= 0; i-- {
		if err := d.procs[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// setUp deploys setupReps times, keeping the last deployment, and
// returns it with every set-up time.
func (b *bench) setUp() (*deployment, []float64, error) {
	var times []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		d, err := b.deploy(fmt.Sprint(i))
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == setupReps-1 {
			return d, times, nil
		}
		d.kill()
	}
	panic("unreachable")
}

// runEndToEnd measures the workload against the real binaries.
func (b *bench) runEndToEnd(rep *report) error {
	d, setups, err := b.setUp()
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	ms := b.models()
	ws, err := b.startWorkers(d.addr, ms, b.wl.tr)
	if err != nil {
		return err
	}
	win, probe, resolved, err := b.measure(ws)
	for _, w := range ws {
		w.close()
	}
	if err != nil {
		return err
	}
	correctness(rep, ws)

	var rss float64
	for _, p := range d.procs {
		mib, err := p.peakRSSMiB()
		if err != nil {
			return err
		}
		rss += mib
	}
	var bytes int64
	for _, s := range d.stores {
		bytes += fileSize(s) + fileSize(s+".wbuf")
	}
	live := 0
	for _, m := range ms {
		live += m.len()
	}
	stores, nprocs := d.stores, len(d.procs)
	err = d.stop()
	d = nil
	if err != nil {
		rep.res.Correct = false
		fmt.Printf("perfbench: INCORRECT: %v\n", err)
	}
	stored := 0
	for _, s := range stores {
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

	fmt.Printf("perfbench: window %d requests (%d queries, %d writes), %d failed: busy=%d timeout=%d wal_overflow=%d err=%d transport=%d; %d outcomes resolved after the run\n",
		win.attempted, len(win.query), len(win.write), win.failed, win.busy, win.timeouts, win.overflow, win.otherErr, win.transport, resolved)
	fmt.Printf("perfbench: per-second successes/failures: %v\n", win.perSec)
	// On read-only workloads the write latencies come from the probe and
	// are printed but left out of the result: 3,000 depth-1 writes over
	// a few seconds see the disk's fsync tail of that moment, and their
	// run-to-run spread (0.2 to 0.4 of the median) is too wide to gate on.
	writes, writeSrc, addWrite := win.write, "window", rep.add
	if b.wl.tr.writeFrac == 0 {
		writes, writeSrc, addWrite = probe.write, "post-window write probe, depth 1, not in the result", rep.info
		fmt.Printf("perfbench: write probe %d writes, %d failed: wal_overflow=%d\n", probe.attempted, probe.failed, probe.overflow)
	}
	rep.res.Attempted = win.attempted + probe.attempted
	rep.res.Failed = win.failed + probe.failed

	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups: %.3f", len(setups), setups))
	rep.add("goodput_ops_s", float64(win.succeeded())/b.window.Seconds(), "ops/s",
		fmt.Sprintf("%d successes in %s, N=%d", win.succeeded(), b.window, numPoints))
	latencyMetrics(rep.add, "query", win.query, "window")
	latencyMetrics(addWrite, "write", writes, writeSrc)
	rep.add("error_frac", float64(win.failed+1)/float64(win.attempted+1), "ratio",
		fmt.Sprintf("(failed+1)/(attempted+1) = (%d+1)/(%d+1)", win.failed, win.attempted))
	rep.add("store_bytes_per_point", float64(bytes)/float64(live), "B", fmt.Sprintf("%d bytes / %d live points", bytes, live))
	rep.add("peak_rss_mb", rss, "MiB", fmt.Sprintf("VmHWM summed over %d server processes", nprocs))
	return nil
}
