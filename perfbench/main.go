// Command perfbench is the end-to-end and per-layer benchmark of the
// serving stack. It prebuilds a 1M-point durable store, boots the real
// rsserve (and rsrouter) binaries at their default flags, drives one of
// four workloads from two connections in a closed loop, checks every
// reply against an exact model, and prints the metrics; with -trace 1 it
// instead assembles the same stack in-process and prints per-layer
// metrics. See README.md for the workloads and the metric map.
//
//	perfbench -bin DIR -work DIR -workload q3-read -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"rangesearch/internal/geom"
)

const (
	// numPoints is N, the live points of every workload's store.
	numPoints = 1_000_000
	// datasetSeed fixes the store's points, and warm-up request streams
	// are fixed too, so every run measures the same aged store and the
	// -seed varies the measured requests. With write traffic the store
	// state after warm-up (which small structures are past their
	// rebuild point) is set by the warm-up stream; varying it per run
	// made the measured regime differ more between runs than any change
	// under test would.
	datasetSeed = 1
	// conns is the number of load connections, one x-stripe each.
	conns = 2
	// setupReps is how many times a run sets up its stack; setup_s is
	// the median and the last set-up stack is the one measured.
	setupReps = 3
	// warmup precedes the measured window. Workloads that write also
	// warm up until warmWrites write replies have been read since boot:
	// a freshly bulk-loaded store answers its first ~6k writes on a fast
	// path before small-structure rebuilds set in, and the window must
	// measure the regime users stay in, not the transient. warmCap
	// bounds the warm-up when writes stall.
	warmup     = time.Second
	warmWrites = 11_000
	warmCap    = 45 * time.Second
	// probeWrites is the per-connection count of the one-at-a-time
	// writes read-only workloads issue after their window: enough for
	// 30 samples beyond p99, and few enough (3,000 in all) to stay clear
	// of the ~6k-write point where a fresh store's small-structure
	// rebuilds start to outgrow the WAL.
	probeWrites = 1500
)

// workload is one traffic mix on one deployment.
type workload struct {
	name     string
	why      string
	tr       traffic
	buffered bool // rsserve -write-buffer
	routed   bool // rsrouter over two shards split at the x-median
}

var workloads = []workload{
	{name: "q3-read", why: "100% QUERY3 at depth 1 on the durable stack: the read path alone",
		tr: traffic{depth: 1, wideQueries: true}},
	{name: "churn-durable", why: "80% writes / 20% QUERY3 at depth 8 on the durable write-through stack",
		tr: traffic{writeFrac: 0.8, depth: 8}},
	{name: "churn-buffered", why: "churn-durable traffic with rsserve -write-buffer at its defaults",
		tr: traffic{writeFrac: 0.8, depth: 8}, buffered: true},
	{name: "q3-routed", why: "q3-read traffic through rsrouter over two durable shards split at the x-median",
		tr: traffic{depth: 1, wideQueries: true}, routed: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one named result value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each as a human-readable line.
type report struct {
	res result
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *report) add(name string, v float64, unit, note string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.info(name, v, unit, note)
}

// info prints a metric line without putting the metric in the result.
func (r *report) info(name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("  %-30s %14.6g %-6s%s\n", name, v, unit, note)
}

func (r *report) print() {
	raw, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload: q3-read, churn-durable, churn-buffered, q3-routed")
		seed    = flag.Int64("seed", 1, "workload seed: the measured request streams")
		seconds = flag.Int("seconds", 10, "measured window in seconds")
		traceOn = flag.Int("trace", 0, "1: traced in-process run printing per-layer metrics")
		binDir  = flag.String("bin", "", "directory holding the rsserve and rsrouter binaries")
		workDir = flag.String("work", "", "working directory for stores and server logs")
	)
	flag.Parse()
	wl, ok := findWorkload(*wlName)
	if !ok || *binDir == "" || *workDir == "" || *seconds < 1 || *traceOn < 0 || *traceOn > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (q3-read|churn-durable|churn-buffered|q3-routed), -bin, -work, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	dir := filepath.Join(*workDir, wl.name)
	if err := os.RemoveAll(dir); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d N=%d conns=%d: %s\n", wl.name, *seed, *seconds, *traceOn, numPoints, conns, wl.why)

	b := &bench{wl: wl, seed: *seed, window: time.Duration(*seconds) * time.Second, bin: *binDir, dir: dir}
	if *traceOn == 0 {
		// The traced run keeps the whole stack in this process, unpinned.
		var err error
		if b.place, err = pinLoad(); err != nil {
			fatal(err)
		}
		fmt.Printf("perfbench: placement %s\n", b.place)
	}
	fmt.Printf("perfbench: host %s (load generator)\n", host())
	b.pts = genPoints(datasetSeed, numPoints)
	rep := newReport()
	var err error
	if *traceOn == 1 {
		err = b.runTraced(rep)
	} else {
		err = b.runEndToEnd(rep)
	}
	if err != nil {
		fatal(err)
	}
	rep.print()
	if !rep.res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// bench is one run of one workload.
type bench struct {
	wl     workload
	seed   int64
	window time.Duration
	bin    string
	dir    string
	place  placement
	pts    []geom.Point // sorted by (x, y)
}

// shardSplit is the x-median the routed workload splits its shards at.
func (b *bench) shardSplit() int64 { return b.pts[len(b.pts)/2].X }

// storeSets returns the store paths and the points each holds.
func (b *bench) storeSets() ([]string, [][]geom.Point) {
	if !b.wl.routed {
		return []string{filepath.Join(b.dir, "store.db")}, [][]geom.Point{b.pts}
	}
	split := b.shardSplit()
	i := sort.Search(len(b.pts), func(i int) bool { return b.pts[i].X >= split })
	return []string{filepath.Join(b.dir, "shard0.db"), filepath.Join(b.dir, "shard1.db")},
		[][]geom.Point{b.pts[:i], b.pts[i:]}
}

// models builds one exact model per connection stripe.
func (b *bench) models() []*model {
	ms := make([]*model, conns)
	for c := range ms {
		lo := int64(c) * (domain / conns)
		ms[c] = newModel(lo, lo+domain/conns, b.pts)
	}
	return ms
}

// startWorkers dials one worker per stripe at addr.
func (b *bench) startWorkers(addr string, ms []*model, tr traffic) ([]*worker, error) {
	tr.n = numPoints
	tr.buffered = b.wl.buffered
	ws := make([]*worker, 0, conns)
	writes := &atomic.Int64{}
	for c := range ms {
		w, err := newWorker(addr, -int64(c)-1, b.seed*1000+int64(c)+1, ms[c], ms, tr, writes)
		if err != nil {
			for _, w := range ws {
				w.close()
			}
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// measure runs warm-up, the measured window, and, on read-only
// workloads, the write probe after it. It returns the window and probe tallies
// and the number of write outcomes that had to be resolved afterwards.
func (b *bench) measure(ws []*worker) (win, probe *tally, resolved int, err error) {
	writes := int64(0)
	if b.wl.tr.writeFrac > 0 {
		writes = warmWrites
	}
	// The load generator shares the servers' CPU: collect the garbage of
	// the store prebuilds now rather than inside the measured window.
	runtime.GC()
	if err := warm(ws, writes); err != nil {
		return nil, nil, 0, err
	}
	if win, err = runWindow(ws, b.window); err != nil {
		return nil, nil, 0, err
	}
	probe = &tally{}
	if b.wl.tr.writeFrac == 0 {
		if probe, err = runProbe(ws); err != nil {
			return nil, nil, 0, err
		}
	}
	resolved, err = resolveAll(ws)
	return win, probe, resolved, err
}

// warm runs the workload unrecorded for at least the warm-up time and
// until minWrites write replies have been read since the workers dialed.
func warm(ws []*worker, minWrites int64) error {
	start := time.Now()
	warmed := func() bool {
		now := time.Since(start)
		return now >= warmCap || now >= warmup && ws[0].writes.Load() >= minWrites
	}
	err := runAll(ws, func(i int, w *worker) error {
		return w.run(warmed, func(time.Time) *tally { return nil })
	})
	for _, w := range ws {
		w.rng = rand.New(rand.NewSource(w.seed))
	}
	fmt.Printf("perfbench: warm-up %.1fs, %d write replies since boot\n", time.Since(start).Seconds(), ws[0].writes.Load())
	return err
}

// runWindow runs the workload for d and tallies the replies that arrive
// inside it.
func runWindow(ws []*worker, d time.Duration) (*tally, error) {
	tallies := make([]tally, len(ws))
	from := time.Now()
	end := from.Add(d)
	if err := runAll(ws, func(i int, w *worker) error {
		tallies[i].start = from
		return w.run(func() bool { return !time.Now().Before(end) }, func(now time.Time) *tally {
			if now.Before(end) {
				return &tallies[i]
			}
			return nil
		})
	}); err != nil {
		return nil, err
	}
	win := &tally{}
	for i := range tallies {
		win.merge(&tallies[i])
	}
	return win, nil
}

// runProbe issues probeWrites one-at-a-time writes per connection.
func runProbe(ws []*worker) (*tally, error) {
	tallies := make([]tally, len(ws))
	start := time.Now()
	if err := runAll(ws, func(i int, w *worker) error {
		tallies[i].start = start
		return w.runWrites(probeWrites, &tallies[i])
	}); err != nil {
		return nil, err
	}
	probe := &tally{}
	for i := range tallies {
		probe.merge(&tallies[i])
	}
	return probe, nil
}

func resolveAll(ws []*worker) (int, error) {
	total := 0
	for _, w := range ws {
		n, err := w.resolve()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// correctness folds the workers' verdicts into the report.
func correctness(rep *report, ws []*worker) {
	for i, w := range ws {
		if w.bad != "" {
			rep.res.Correct = false
			fmt.Printf("perfbench: INCORRECT: connection %d: %d mismatches, first: %s\n", i, w.badN, w.bad)
		}
	}
}

// latencyMetrics adds the p50 and p99 of d in milliseconds. The p50 is
// over all samples; the p99 is the median of the p99s of n/1000 (at most
// six) equal time slices of the phase, so that each slice has about ten
// samples beyond its p99, and the whole-phase p99 is printed next to it.
func latencyMetrics(add func(name string, v float64, unit, note string), prefix string, d dist, source string) {
	p50, beyond50 := d.quantile(0.50)
	add(prefix+"_p50_ms", float64(p50)/1e6, "ms", fmt.Sprintf("%s: n=%d, %d beyond", source, len(d), beyond50))
	p99, slices := d.slicedQuantile(0.99, 1000, 6)
	whole, beyond99 := d.quantile(0.99)
	ms := make([]string, len(slices))
	for i, v := range slices {
		ms[i] = fmt.Sprintf("%.3f", float64(v)/1e6)
	}
	add(prefix+"_p99_ms", float64(p99)/1e6, "ms",
		fmt.Sprintf("median of %d slice p99s %v; whole %s: %.3f ms, n=%d, %d beyond", len(slices), ms, source, float64(whole)/1e6, len(d), beyond99))
}
