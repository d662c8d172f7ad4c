// Package smallstruct implements the Θ(B²)-point dynamic 3-sided structure
// of Lemma 1 / Section 3.1 of Arge, Samoladas & Vitter (PODS 1999): the
// sweep-line indexing scheme of Section 2.2.1 laid out on disk blocks, with
// its block metadata (x-ranges and activity y-intervals) packed into O(1)
// "catalog" blocks.
//
// A structure over N = O(B²) points occupies O(N/B + 1) index blocks plus
// an O(1)-block catalog. A 3-sided query reads the catalog, selects the
// covering blocks from it in memory, and reads those blocks: O(t + 1) I/Os.
//
// Updates are supported in O(1) I/Os amortized, as the paper's full version
// prescribes: insertions and deletions are appended to a small buffer held
// inside the catalog record; when the buffer reaches Θ(B) entries the whole
// structure is rebuilt with the sweep-line algorithm, costing O(N/B + 1)
// I/Os — O(1) amortized per update for N = O(B²). (The paper's in-place
// O(B)-I/O construction streams with a priority queue; we rebuild through
// memory, which transfers the same O(N/B) blocks.)
//
// The structure stores a *set* of points: duplicate insertions are
// rejected. This is what its only client, the external priority search
// tree, requires — each point is stored in exactly one node's structure —
// and it keeps delete semantics unambiguous under the scheme's internal
// block-level duplication.
package smallstruct

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
	"rangesearch/internal/sweep"
)

// ErrDuplicate reports insertion of a point already present.
var ErrDuplicate = errors.New("smallstruct: duplicate point")

// DefaultAlpha is the sweep coalescing parameter used when 0 is passed.
const DefaultAlpha = 2

// Struct is a handle to a small structure stored on an eio.Store. The
// handle itself holds no point data; every operation reads the catalog
// record (O(1) pages) and the index blocks it needs.
type Struct struct {
	store   eio.Store
	rs      eio.RecordStore
	b       int
	alpha   int
	bufCap  int // 0 = default B/2
	catalog eio.PageID
}

// Scratch is reusable decode storage for reading small structures: the
// raw catalog record, the catalog decoded from it, and the tombstone set.
// The zero value is ready to use. A Scratch serves one call at a time —
// never share one between concurrent calls — and each call that uses it
// overwrites what the previous one left.
type Scratch struct {
	raw []byte
	cat catalogData
}

// catalogData is the decoded catalog.
type catalogData struct {
	blocks []blockMeta
	ins    []geom.Point        // buffered insertions, not yet in blocks
	dels   []geom.Point        // buffered deletions (tombstones on block contents)
	dead   map[geom.Point]bool // dels as a set; built by tombstones
}

type blockMeta struct {
	page      eio.PageID
	count     int32
	initial   bool
	retiredAt bool
	xlo, xhi  int64
	yact      int64
	yret      int64
	topY      int64 // max stored y (stale under tombstones; upper bound)
}

const blockMetaSize = 8 + 4 + 4 + 5*8 // page, count, flags, xlo/xhi/yact/yret/topY

// Create builds a structure over pts (which must be distinct) and writes it
// to store. alpha is the sweep coalescing parameter (0 selects
// DefaultAlpha). The block size is the store's point capacity.
func Create(store eio.Store, alpha int, pts []geom.Point) (*Struct, error) {
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	s := &Struct{
		store: store,
		rs:    *eio.NewRecordStore(store),
		b:     eio.BlockCapacity(store.PageSize()),
		alpha: alpha,
	}
	if s.b < 2 {
		return nil, fmt.Errorf("smallstruct: page size %d holds fewer than 2 points", store.PageSize())
	}
	if alpha < 2 {
		return nil, fmt.Errorf("smallstruct: alpha %d < 2", alpha)
	}
	seen := make(map[geom.Point]bool, len(pts))
	for _, p := range pts {
		if seen[p] {
			return nil, fmt.Errorf("smallstruct: point %v: %w", p, ErrDuplicate)
		}
		seen[p] = true
	}
	cat, err := s.writeScheme(pts)
	if err != nil {
		return nil, err
	}
	id, err := s.rs.Put(encodeCatalog(cat))
	if err != nil {
		return nil, err
	}
	s.catalog = id
	return s, nil
}

// Open attaches to a structure previously created on store.
func Open(store eio.Store, catalog eio.PageID, alpha int) (*Struct, error) {
	s := new(Struct)
	if err := s.Reopen(store, catalog, alpha, new(Scratch)); err != nil {
		return nil, err
	}
	return s, nil
}

// Reopen attaches the existing handle s to the structure with the given
// catalog, exactly as Open does, catalog read and validation included,
// but decoding into sc and reusing s instead of allocating a handle. A
// query that visits many small structures re-attaches one handle.
func (s *Struct) Reopen(store eio.Store, catalog eio.PageID, alpha int, sc *Scratch) error {
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	*s = Struct{
		store:   store,
		rs:      *eio.NewRecordStore(store),
		b:       eio.BlockCapacity(store.PageSize()),
		alpha:   alpha,
		catalog: catalog,
	}
	// Validate eagerly so a dangling id fails here, not mid-query.
	_, err := s.loadCatalogInto(sc)
	return err
}

// CatalogID returns the record id that identifies this structure on its
// store; pass it to Open to re-attach.
func (s *Struct) CatalogID() eio.PageID { return s.catalog }

// B returns the block capacity in points.
func (s *Struct) B() int { return s.b }

// bufferCap is the update-buffer size that triggers a rebuild.
func (s *Struct) bufferCap() int {
	if s.bufCap > 0 {
		return s.bufCap
	}
	return (s.b + 1) / 2
}

// SetBufferCap overrides the rebuild threshold (default B/2) for this
// handle. Smaller caps rebuild more often (cheaper queries, costlier
// updates); larger caps do the reverse — experiment E5 sweeps it. The
// setting is per-handle, not persisted.
func (s *Struct) SetBufferCap(n int) {
	if n < 1 {
		n = 1
	}
	s.bufCap = n
}

// writeScheme runs the sweep construction over pts and writes the blocks.
// It returns the new catalog contents. It never touches existing blocks:
// callers replacing a catalog must commit the new one first and free the
// old blocks afterwards (see rebuild), so a failure mid-rewrite leaves the
// committed catalog's pages intact.
func (s *Struct) writeScheme(pts []geom.Point) (*catalogData, error) {
	sch, err := sweep.Build(pts, s.b, s.alpha)
	if err != nil {
		return nil, fmt.Errorf("smallstruct: %w", err)
	}
	cat := &catalogData{}
	for i := range sch.Blocks() {
		blk := &sch.Blocks()[i]
		if len(blk.Points) == 0 {
			continue
		}
		page, err := eio.WritePointBlock(s.store, eio.NilPage, blk.Points)
		if err != nil {
			return nil, fmt.Errorf("smallstruct: write block: %w", err)
		}
		top := blk.Points[0].Y
		for _, p := range blk.Points {
			if p.Y > top {
				top = p.Y
			}
		}
		cat.blocks = append(cat.blocks, blockMeta{
			page:      page,
			count:     int32(len(blk.Points)),
			initial:   blk.Initial,
			retiredAt: blk.RetiredAt,
			xlo:       blk.XLo,
			xhi:       blk.XHi,
			yact:      blk.YAct,
			yret:      blk.YRet,
			topY:      top,
		})
	}
	return cat, nil
}

// loadCatalog reads and decodes the catalog record into fresh storage.
func (s *Struct) loadCatalog() (*catalogData, error) {
	return s.loadCatalogInto(new(Scratch))
}

// loadCatalogInto reads and decodes the catalog record into sc, reusing
// its storage. The returned catalog lives in sc.
func (s *Struct) loadCatalogInto(sc *Scratch) (*catalogData, error) {
	raw, err := s.rs.AppendRecord(sc.raw[:0], s.catalog)
	if err != nil {
		return nil, fmt.Errorf("smallstruct: load catalog: %w", err)
	}
	sc.raw = raw
	if err := sc.cat.decode(raw); err != nil {
		return nil, err
	}
	return &sc.cat, nil
}

// storeCatalog re-encodes and writes the catalog record in place.
func (s *Struct) storeCatalog(cat *catalogData) error {
	if err := s.rs.Update(s.catalog, encodeCatalog(cat)); err != nil {
		return fmt.Errorf("smallstruct: store catalog: %w", err)
	}
	return nil
}

// activeFor mirrors sweep.Block.ActiveFor on catalog metadata.
func (m *blockMeta) activeFor(c int64) bool {
	if !m.initial && c <= m.yact {
		return false
	}
	return !m.retiredAt || c <= m.yret
}

// Query3 appends to dst every live point satisfying q and returns the
// extended slice. Cost: O(1) catalog pages + O(t+1) block reads.
func (s *Struct) Query3(dst []geom.Point, q geom.Query3) ([]geom.Point, error) {
	return s.Query3With(dst, q, new(Scratch))
}

// Query3With is Query3 decoding the catalog into sc instead of fresh
// storage. Matching points are filtered straight off each block's page
// into dst, so with a reused sc and a dst of sufficient capacity the
// query allocates nothing, however many blocks it reads.
func (s *Struct) Query3With(dst []geom.Point, q geom.Query3, sc *Scratch) ([]geom.Point, error) {
	cat, err := s.loadCatalogInto(sc)
	if err != nil {
		return dst, err
	}
	return s.query3(dst, cat, q)
}

func (s *Struct) query3(dst []geom.Point, cat *catalogData, q geom.Query3) ([]geom.Point, error) {
	if q.Empty() {
		return dst, nil
	}
	dead := cat.tombstones()
	keep := func(p geom.Point) bool { return q.Contains(p) && !dead[p] }
	for i := range cat.blocks {
		m := &cat.blocks[i]
		if !m.activeFor(q.YLo) || m.xlo > q.XHi || m.xhi < q.XLo || q.YLo > m.topY {
			continue
		}
		var err error
		if dst, err = eio.FilterPointBlock(dst, s.store, m.page, int(m.count), keep); err != nil {
			return dst, fmt.Errorf("smallstruct: read block: %w", err)
		}
	}
	for _, p := range cat.ins {
		if q.Contains(p) {
			dst = append(dst, p)
		}
	}
	return dst, nil
}

// tombstones returns the buffered deletions as a set, rebuilt in the
// catalog's reusable map.
func (cat *catalogData) tombstones() map[geom.Point]bool {
	if len(cat.dels) == 0 {
		return nil
	}
	if cat.dead == nil {
		cat.dead = make(map[geom.Point]bool, len(cat.dels))
	} else {
		clear(cat.dead)
	}
	for _, p := range cat.dels {
		cat.dead[p] = true
	}
	return cat.dead
}

// Contains reports whether p is stored (live).
func (s *Struct) Contains(p geom.Point) (bool, error) {
	got, err := s.Query3(nil, geom.Query3{XLo: p.X, XHi: p.X, YLo: p.Y})
	if err != nil {
		return false, err
	}
	for _, q := range got {
		if q == p {
			return true, nil
		}
	}
	return false, nil
}

// Insert adds p. It returns ErrDuplicate if p is already stored.
// Cost: O(1) I/Os amortized.
func (s *Struct) Insert(p geom.Point) error {
	cat, err := s.loadCatalog()
	if err != nil {
		return err
	}
	// A buffered tombstone for p cancels out (reinsertion after delete).
	for i, d := range cat.dels {
		if d == p {
			cat.dels = append(cat.dels[:i], cat.dels[i+1:]...)
			return s.storeCatalog(cat)
		}
	}
	present, err := s.query3(nil, cat, geom.Query3{XLo: p.X, XHi: p.X, YLo: p.Y})
	if err != nil {
		return err
	}
	for _, q := range present {
		if q == p {
			return fmt.Errorf("smallstruct: insert %v: %w", p, ErrDuplicate)
		}
	}
	cat.ins = append(cat.ins, p)
	if len(cat.ins)+len(cat.dels) >= s.bufferCap() {
		return s.rebuild(cat)
	}
	return s.storeCatalog(cat)
}

// Delete removes p, reporting whether it was present.
// Cost: O(1) I/Os amortized.
func (s *Struct) Delete(p geom.Point) (bool, error) {
	cat, err := s.loadCatalog()
	if err != nil {
		return false, err
	}
	// If p is still in the insert buffer, cancel it there.
	for i, q := range cat.ins {
		if q == p {
			cat.ins = append(cat.ins[:i], cat.ins[i+1:]...)
			return true, s.storeCatalog(cat)
		}
	}
	present, err := s.query3(nil, cat, geom.Query3{XLo: p.X, XHi: p.X, YLo: p.Y})
	if err != nil {
		return false, err
	}
	found := false
	for _, q := range present {
		if q == p {
			found = true
			break
		}
	}
	if !found {
		return false, nil
	}
	cat.dels = append(cat.dels, p)
	if len(cat.ins)+len(cat.dels) >= s.bufferCap() {
		return true, s.rebuild(cat)
	}
	return true, s.storeCatalog(cat)
}

// all returns the live point set: the stored base partition (the initial
// blocks of the last rebuild partition the base set exactly, so no
// deduplication is needed) minus tombstones, plus the insert buffer.
func (s *Struct) all(cat *catalogData) ([]geom.Point, error) {
	dead := cat.tombstones()
	live := func(p geom.Point) bool { return !dead[p] }
	var out []geom.Point
	for i := range cat.blocks {
		m := &cat.blocks[i]
		if !m.initial {
			continue
		}
		var err error
		if out, err = eio.FilterPointBlock(out, s.store, m.page, int(m.count), live); err != nil {
			return nil, fmt.Errorf("smallstruct: read block: %w", err)
		}
	}
	out = append(out, cat.ins...)
	return out, nil
}

// All returns every live point. Cost: O(n/B·α/(α−1) + 1) I/Os.
func (s *Struct) All() ([]geom.Point, error) {
	cat, err := s.loadCatalog()
	if err != nil {
		return nil, err
	}
	return s.all(cat)
}

// Len returns the number of live points (reads only the catalog, which
// records per-block counts, but must reconcile tombstones against the base
// partition; tombstone points are always base points, so Len is exact).
func (s *Struct) Len() (int, error) {
	cat, err := s.loadCatalog()
	if err != nil {
		return 0, err
	}
	n := 0
	for i := range cat.blocks {
		if cat.blocks[i].initial {
			n += int(cat.blocks[i].count)
		}
	}
	return n - len(cat.dels) + len(cat.ins), nil
}

// MaxY returns the live point with the largest y-coordinate (ties broken
// toward larger x). The boolean is false if the structure is empty.
// Cost: O(1) I/Os amortized — extra block reads are charged to the
// tombstones that caused them.
func (s *Struct) MaxY() (geom.Point, bool, error) {
	cat, err := s.loadCatalog()
	if err != nil {
		return geom.Point{}, false, err
	}
	return s.maxY(cat)
}

func (s *Struct) maxY(cat *catalogData) (geom.Point, bool, error) {
	dead := cat.tombstones()
	var best geom.Point
	found := false
	better := func(p geom.Point) bool {
		return !found || p.Y > best.Y || (p.Y == best.Y && p.X > best.X)
	}
	for _, p := range cat.ins {
		if better(p) {
			best, found = p, true
		}
	}
	// Visit blocks in decreasing topY until the bound says stop. The
	// catalog is small (O(B) entries), so selection is done in memory.
	order := make([]int, len(cat.blocks))
	for i := range order {
		order[i] = i
	}
	// Insertion-sort by topY descending (catalog is short).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && cat.blocks[order[j]].topY > cat.blocks[order[j-1]].topY; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var pts []geom.Point
	for _, bi := range order {
		m := &cat.blocks[bi]
		// Strict: a block with topY == best.Y may still hold an equal-y
		// point with a larger x, which wins the tiebreak.
		if found && best.Y > m.topY {
			break
		}
		// Only blocks that can hold live points matter: a block's stored
		// points are live at threshold c only while the block is active;
		// for "current maximum" we want points live right now, i.e. at
		// every threshold — every stored non-tombstoned point is a copy of
		// a live point, so any copy is a valid answer.
		var err error
		pts, err = eio.ReadPointBlock(pts[:0], s.store, m.page, int(m.count))
		if err != nil {
			return best, found, fmt.Errorf("smallstruct: read block: %w", err)
		}
		for _, p := range pts {
			if !dead[p] && better(p) {
				best, found = p, true
			}
		}
	}
	return best, found, nil
}

// rebuild reconstructs the scheme from the live set and resets the buffer.
func (s *Struct) rebuild(cat *catalogData) error {
	pts, err := s.all(cat)
	if err != nil {
		return err
	}
	// Shadow-paging order: write the new blocks and commit the catalog
	// that references them before freeing the old blocks. A failure at any
	// point leaves a readable structure (at worst leaking the new blocks).
	ncat, err := s.writeScheme(pts)
	if err != nil {
		return err
	}
	if err := s.storeCatalog(ncat); err != nil {
		return err
	}
	for i := range cat.blocks {
		if err := s.store.Free(cat.blocks[i].page); err != nil {
			return fmt.Errorf("smallstruct: free old block: %w", err)
		}
	}
	return nil
}

// Rebuild forces an immediate rebuild (used by tests and by the priority
// search tree after bulk manipulation).
func (s *Struct) Rebuild() error {
	cat, err := s.loadCatalog()
	if err != nil {
		return err
	}
	return s.rebuild(cat)
}

// Destroy frees every page owned by the structure, including the catalog.
// The handle must not be used afterwards.
func (s *Struct) Destroy() error {
	cat, err := s.loadCatalog()
	if err != nil {
		return err
	}
	for i := range cat.blocks {
		if err := s.store.Free(cat.blocks[i].page); err != nil {
			return err
		}
	}
	return s.rs.Delete(s.catalog)
}

// Blocks returns the number of index blocks currently allocated.
func (s *Struct) Blocks() (int, error) {
	cat, err := s.loadCatalog()
	if err != nil {
		return 0, err
	}
	return len(cat.blocks), nil
}

// CatalogPages returns the number of pages the catalog record occupies —
// the "O(1) catalog blocks" of Lemma 1.
func (s *Struct) CatalogPages() (int, error) {
	raw, err := s.rs.Get(s.catalog)
	if err != nil {
		return 0, err
	}
	return s.rs.PagesFor(len(raw)), nil
}

// encodeCatalog serializes the catalog.
func encodeCatalog(cat *catalogData) []byte {
	out := make([]byte, 12+blockMetaSize*len(cat.blocks)+eio.PointSize*(len(cat.ins)+len(cat.dels)))
	binary.LittleEndian.PutUint32(out[0:], uint32(len(cat.blocks)))
	binary.LittleEndian.PutUint32(out[4:], uint32(len(cat.ins)))
	binary.LittleEndian.PutUint32(out[8:], uint32(len(cat.dels)))
	off := 12
	for i := range cat.blocks {
		m := &cat.blocks[i]
		binary.LittleEndian.PutUint64(out[off:], uint64(m.page))
		binary.LittleEndian.PutUint32(out[off+8:], uint32(m.count))
		var flags uint32
		if m.initial {
			flags |= 1
		}
		if m.retiredAt {
			flags |= 2
		}
		binary.LittleEndian.PutUint32(out[off+12:], flags)
		binary.LittleEndian.PutUint64(out[off+16:], uint64(m.xlo))
		binary.LittleEndian.PutUint64(out[off+24:], uint64(m.xhi))
		binary.LittleEndian.PutUint64(out[off+32:], uint64(m.yact))
		binary.LittleEndian.PutUint64(out[off+40:], uint64(m.yret))
		binary.LittleEndian.PutUint64(out[off+48:], uint64(m.topY))
		off += blockMetaSize
	}
	for _, p := range cat.ins {
		eio.PutPoint(out, off, p)
		off += eio.PointSize
	}
	for _, p := range cat.dels {
		eio.PutPoint(out, off, p)
		off += eio.PointSize
	}
	return out
}

// decode is the inverse of encodeCatalog. It overwrites cat, reusing its
// storage.
func (cat *catalogData) decode(raw []byte) error {
	if len(raw) < 12 {
		return fmt.Errorf("smallstruct: catalog too short (%d bytes)", len(raw))
	}
	nb := int(binary.LittleEndian.Uint32(raw[0:]))
	ni := int(binary.LittleEndian.Uint32(raw[4:]))
	nd := int(binary.LittleEndian.Uint32(raw[8:]))
	want := 12 + blockMetaSize*nb + eio.PointSize*(ni+nd)
	if len(raw) != want {
		return fmt.Errorf("smallstruct: catalog length %d, want %d", len(raw), want)
	}
	cat.blocks = slices.Grow(cat.blocks[:0], nb)[:nb]
	cat.ins = slices.Grow(cat.ins[:0], ni)
	cat.dels = slices.Grow(cat.dels[:0], nd)
	off := 12
	for i := 0; i < nb; i++ {
		m := &cat.blocks[i]
		m.page = eio.PageID(binary.LittleEndian.Uint64(raw[off:]))
		m.count = int32(binary.LittleEndian.Uint32(raw[off+8:]))
		flags := binary.LittleEndian.Uint32(raw[off+12:])
		m.initial = flags&1 != 0
		m.retiredAt = flags&2 != 0
		m.xlo = int64(binary.LittleEndian.Uint64(raw[off+16:]))
		m.xhi = int64(binary.LittleEndian.Uint64(raw[off+24:]))
		m.yact = int64(binary.LittleEndian.Uint64(raw[off+32:]))
		m.yret = int64(binary.LittleEndian.Uint64(raw[off+40:]))
		m.topY = int64(binary.LittleEndian.Uint64(raw[off+48:]))
		off += blockMetaSize
	}
	for i := 0; i < ni; i++ {
		cat.ins = append(cat.ins, eio.GetPoint(raw, off))
		off += eio.PointSize
	}
	for i := 0; i < nd; i++ {
		cat.dels = append(cat.dels, eio.GetPoint(raw, off))
		off += eio.PointSize
	}
	return nil
}
