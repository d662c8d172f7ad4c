package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
)

// fileStack is the durable read stack rsserve serves from:
// SnapStore(TxStore(FileStore)), with a 3-sided structure built on it and
// published as the first epoch.
type fileStack struct {
	fs   *eio.FileStore
	tx   *eio.TxStore
	snap *eio.SnapStore
	idx  *ThreeSided
	pts  []geom.Point
}

func newFileStack(t *testing.T, n int) *fileStack {
	t.Helper()
	fs, err := eio.CreateFileStore(filepath.Join(t.TempDir(), "read.db"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := eio.NewTxStore(fs, eio.TxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := eio.NewSnapStore(tx, 0)
	t.Cleanup(func() { snap.Close() })
	pts := distinctPoints(rand.New(rand.NewSource(12)), n, 1<<20)
	idx, err := BuildThreeSided(snap, epst.Options{}, pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	return &fileStack{fs: fs, tx: tx, snap: snap, idx: idx, pts: pts}
}

// TestThreeSidedQueryAllocsConstant is the allocation gate of the read
// path: a query through an epoch view of the durable file stack, into a
// pre-sized dst, allocates a small constant number of objects, and a wide
// query that reads many more blocks allocates exactly as many as a narrow
// one. Like the I/O counts, allocs/op is near-deterministic, so it is
// gated rather than benchmarked.
func TestThreeSidedQueryAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool entries, so allocation counts are not deterministic")
	}
	const maxAllocs = 8
	st := newFileStack(t, 20000)
	epoch := st.snap.Pin()
	defer st.snap.Unpin(epoch)
	view, err := OpenThreeSided(st.snap.View(epoch), st.idx.HeaderID())
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]geom.Point, 0, len(st.pts))
	cases := []struct {
		name string
		q    geom.Rect
	}{
		{"narrow", geom.Rect{XLo: 1000, XHi: 9000, YLo: 1 << 19, YHi: geom.MaxCoord}},
		{"wide", geom.Rect{XLo: 0, XHi: 1 << 20, YLo: 1 << 18, YHi: geom.MaxCoord}},
	}
	var reads [2]uint64
	var allocs [2]float64
	for i, c := range cases {
		before := st.fs.Stats().Reads
		got, err := view.Query(dst[:0], c.q)
		if err != nil {
			t.Fatal(err)
		}
		reads[i] = st.fs.Stats().Reads - before
		if len(got) == 0 {
			t.Fatalf("%s: empty answer", c.name)
		}
		allocs[i] = testing.AllocsPerRun(50, func() {
			if _, err := view.Query(dst[:0], c.q); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d points, %d block reads, %.0f allocs/query", c.name, len(got), reads[i], allocs[i])
		if allocs[i] > maxAllocs {
			t.Errorf("%s query: %.0f allocs, want ≤ %d", c.name, allocs[i], maxAllocs)
		}
	}
	if reads[1] < 10*reads[0] {
		t.Fatalf("wide query read %d blocks, narrow %d: the cases no longer differ in work", reads[1], reads[0])
	}
	if allocs[0] != allocs[1] {
		t.Errorf("allocs grow with blocks read: narrow %.0f (%d reads), wide %.0f (%d reads)",
			allocs[0], reads[0], allocs[1], reads[1])
	}
}

// TestConcurrentParallelSnapshotQueries runs many snapshot readers at once
// on a file-backed Concurrent, every one of them reusing pooled scratch
// and the FileStore's slot buffer, and checks each answer against the
// serial one. Under -race it is the check that no read-path buffer is
// shared between concurrent queries.
func TestConcurrentParallelSnapshotQueries(t *testing.T) {
	st := newFileStack(t, 6000)
	hdr := st.idx.HeaderID()
	c, err := NewConcurrent(NewDurable(st.idx, st.tx), st.snap,
		func(s eio.Store) (Index, error) { return OpenThreeSided(s, hdr) }, ConcurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(3))
	queries := make([]geom.Rect, 40)
	want := make([][]geom.Point, len(queries))
	for i := range queries {
		lo := rng.Int63n(1 << 20)
		queries[i] = geom.Rect{XLo: lo, XHi: lo + rng.Int63n(1<<19), YLo: rng.Int63n(1 << 20), YHi: geom.MaxCoord}
		if i%4 == 0 {
			queries[i].YHi = queries[i].YLo + 1<<18 // bounded top: ThreeSided filters in place
		}
		got, err := c.Query(nil, queries[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sorted(got)
	}

	const readers = 8
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sn, err := c.Snapshot()
			if err != nil {
				t.Error(err)
				return
			}
			defer sn.Close()
			var dst []geom.Point
			for round := 0; round < 3; round++ {
				for i := range queries {
					qi := (i + r*7) % len(queries)
					// Alternate the pinned snapshot with per-call epochs, and
					// keep a non-empty prefix in dst to check it survives.
					prefix := geom.Point{X: -1, Y: int64(r)}
					if (i+round)%2 == 0 {
						dst, err = sn.Query(append(dst[:0], prefix), queries[qi])
					} else {
						dst, err = c.Query(append(dst[:0], prefix), queries[qi])
					}
					if err != nil {
						t.Error(err)
						return
					}
					if dst[0] != prefix {
						t.Errorf("reader %d: query %d overwrote dst[0]", r, qi)
						return
					}
					if got := sorted(dst[1:]); !equalPts(got, want[qi]) {
						t.Errorf("reader %d: query %d returned %d points, serial %d", r, qi, len(got), len(want[qi]))
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestConcurrentWriteOnlyStretchHoldsNoVersions is the regression test for
// the idle epoch-view pin: after one query caches a read view, a stretch of
// writes with no reads must not keep that view's epoch pinned. Each commit
// may keep at most the pre-images its own batch captured, never those of
// earlier batches, and no free may stay deferred.
func TestConcurrentWriteOnlyStretchHoldsNoVersions(t *testing.T) {
	st := newFileStack(t, 4000)
	hdr := st.idx.HeaderID()
	c, err := NewConcurrent(NewDurable(st.idx, st.tx), st.snap,
		func(s eio.Store) (Index, error) { return OpenThreeSided(s, hdr) }, ConcurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(nil, geom.Rect{XLo: 0, XHi: 1 << 20, YLo: 1 << 19, YHi: geom.MaxCoord}); err != nil {
		t.Fatal(err)
	}

	var frees int64
	for i := 0; i < 500; i++ {
		before := st.fs.Stats()
		if i%2 == 0 {
			// Fresh points: every stored y is below 1<<20.
			err = c.Insert(geom.Point{X: int64(i) * 2000, Y: 1<<20 + int64(i)})
		} else {
			var found bool
			found, err = c.Delete(st.pts[i])
			if err == nil && !found {
				err = fmt.Errorf("delete of stored point %v found nothing", st.pts[i])
			}
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		after := st.fs.Stats()
		frees += int64(after.Frees - before.Frees)
		// A batch captures at most one pre-image per page it writes or frees.
		batchPages := int64(after.Writes-before.Writes) + int64(after.Frees-before.Frees)
		ss := st.snap.SnapStats()
		if ss.Versions > batchPages || ss.PendingFrees != 0 || ss.Pins != 0 {
			t.Fatalf("after write %d: %d versions held (batch wrote or freed %d pages), %d pending frees, %d pins",
				i, ss.Versions, batchPages, ss.PendingFrees, ss.Pins)
		}
	}
	if frees == 0 {
		t.Fatal("no write freed a page: the stretch does not exercise deferred frees")
	}
}
