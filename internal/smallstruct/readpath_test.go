package smallstruct

import (
	"math/rand"
	"path/filepath"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
)

// TestQuery3WithAllocsConstant is the small-structure allocation gate:
// re-attaching one handle and querying with a reused Scratch into a
// pre-sized dst allocates a small constant number of objects, the same
// for a query that reads one block as for one that reads them all, with
// buffered insertions and tombstones in the catalog.
func TestQuery3WithAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool entries, so allocation counts are not deterministic")
	}
	const maxAllocs = 8
	fs, err := eio.CreateFileStore(filepath.Join(t.TempDir(), "small.db"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	pts := distinctPoints(rand.New(rand.NewSource(4)), 8000, 1<<20)
	s, err := Create(fs, 0, pts[:7990])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[7990:] {
		if err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pts[:10] {
		if ok, err := s.Delete(p); err != nil || !ok {
			t.Fatalf("Delete(%v) = %v, %v", p, ok, err)
		}
	}

	var h Struct
	var sc Scratch
	dst := make([]geom.Point, 0, len(pts))
	query := func(q geom.Query3) ([]geom.Point, error) {
		if err := h.Reopen(fs, s.CatalogID(), 0, &sc); err != nil {
			return nil, err
		}
		return h.Query3With(dst[:0], q, &sc)
	}
	cases := []struct {
		name string
		q    geom.Query3
	}{
		{"narrow", geom.Query3{XLo: 1000, XHi: 5000, YLo: 1 << 19}},
		{"wide", geom.Query3{XLo: 0, XHi: 1 << 20, YLo: 0}},
	}
	var reads [2]uint64
	var allocs [2]float64
	for i, c := range cases {
		want, err := s.Query3(nil, c.q)
		if err != nil {
			t.Fatal(err)
		}
		before := fs.Stats().Reads
		got, err := query(c.q)
		if err != nil {
			t.Fatal(err)
		}
		reads[i] = fs.Stats().Reads - before
		if !equalPts(sorted(got), sorted(want)) {
			t.Fatalf("%s: Query3With returned %d points, Query3 %d", c.name, len(got), len(want))
		}
		allocs[i] = testing.AllocsPerRun(50, func() {
			if _, err := query(c.q); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d points, %d block reads, %.0f allocs/query", c.name, len(got), reads[i], allocs[i])
		if allocs[i] > maxAllocs {
			t.Errorf("%s query: %.0f allocs, want ≤ %d", c.name, allocs[i], maxAllocs)
		}
	}
	if reads[1] < 5*reads[0] {
		t.Fatalf("wide query read %d blocks, narrow %d: the cases no longer differ in work", reads[1], reads[0])
	}
	if allocs[0] != allocs[1] {
		t.Errorf("allocs grow with blocks read: narrow %.0f (%d reads), wide %.0f (%d reads)",
			allocs[0], reads[0], allocs[1], reads[1])
	}
}

// TestReopenValidates checks that Reopen, like Open, reads and validates
// the catalog, failing on an id that names no catalog.
func TestReopenValidates(t *testing.T) {
	store := eio.NewMemStore(128)
	s, err := Create(store, 0, distinctPoints(rand.New(rand.NewSource(9)), 50, 1000))
	if err != nil {
		t.Fatal(err)
	}
	var h Struct
	var sc Scratch
	store.ResetStats()
	if err := h.Reopen(store, s.CatalogID(), 0, &sc); err != nil {
		t.Fatal(err)
	}
	if got, want := store.Stats().Reads, uint64(s.rs.PagesFor(len(sc.raw))); got != want {
		t.Fatalf("Reopen read %d pages, want the %d-page catalog", got, want)
	}
	junk, err := store.Alloc() // a zeroed page: a chain with an empty record
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Reopen(store, junk, 0, &sc); err == nil {
		t.Fatal("Reopen of a page that holds no catalog succeeded")
	}
}
