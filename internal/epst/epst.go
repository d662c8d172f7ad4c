// Package epst implements the external priority search tree of Section 3.3
// of Arge, Samoladas & Vitter (PODS 1999) — the paper's central result
// (Theorem 6): a dynamic structure for 3-sided range queries
// (a ≤ x ≤ b, y ≥ c) storing N points in O(N/B) disk blocks that answers
// queries in O(log_B N + T/B) I/Os and performs updates in O(log_B N) I/Os
// amortized.
//
// Architecture, following the paper exactly:
//
//   - The skeleton is a weight-balanced B-tree (Section 3.2) over the
//     points' x-order (composite (x, y) keys, so duplicate x-coordinates
//     are supported). Leaves own between k and 2k−1 keys; an internal node
//     at level ℓ weighs between a^ℓk/2 and 2a^ℓk.
//
//   - Every internal node v carries a query structure Q_v — the Θ(B²)-point
//     Lemma-1 structure of internal/smallstruct — holding the Y-sets of
//     v's children: for each child w, the ≤ B points with the highest
//     y-coordinates in w's subtree not already stored higher (Figure 3).
//     If anything is stored below w, |Y(w)| ≥ B/2.
//
//   - Each leaf stores the keys in its x-range together with a flag per
//     key: whether the point is stored here or absorbed by an ancestor.
//
// Queries descend the two search paths for x = a and x = b, report from
// each visited node's Q_v in O(1 + t_v) I/Os, and enter an interior child
// only when its entire (≥ B/2-point) Y-set satisfied the query — so every
// interior visit is paid for by Θ(B) reported points (Section 3.3.1).
//
// Updates follow Section 3.3.2 (the amortized variant, which the paper
// notes is the practical choice; the worst-case scheduling machinery of
// Section 3.3.3 exists to de-amortize exactly the costs measured by the
// benchmark suite's update-tail experiment): inserts trickle points down
// through Y-sets; base-tree splits move Y-set points between the split
// halves and refill them with bubble-up promotions; deletions remove the
// point wherever it lives, refill the depleted Y-set by promoting the
// topmost point from below, and trigger a global rebuild once the live
// size halves.
//
// Duplicate-x behaviour: children of a node may share a boundary
// x-coordinate (keys are composite). Y-set retrieval queries Q_v by the
// x-interval and filters by composite range; with heavily duplicated
// x-coordinates this reads extra blocks, degrading update constants but
// never correctness.
package epst

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
	"rangesearch/internal/smallstruct"
)

// ErrDuplicate reports insertion of a point already present.
var ErrDuplicate = errors.New("epst: duplicate point")

// Tree is a handle to an external priority search tree on an eio.Store.
type Tree struct {
	store eio.Store
	rs    *eio.RecordStore
	hdr   eio.PageID
	b     int // block capacity (points per page)
	a     int // branching parameter
	k     int // leaf parameter
	alpha int // smallstruct sweep parameter
}

// meta is the persistent header.
type meta struct {
	root   eio.PageID
	height int
	live   int64
	basis  int64
	a, k   int32
}

const metaSize = 8 + 4 + 8 + 8 + 4 + 4

// node is a decoded tree node. Exactly one of entries/keys is used.
type node struct {
	level   int
	q       eio.PageID // smallstruct catalog (internal nodes)
	entries []entry
	keys    []keyEntry // leaves: sorted by composite (x, y)
}

type entry struct {
	maxKey geom.Point
	child  eio.PageID
	weight int64
	ysize  int32 // |Y(child)| inside this node's Q
}

type keyEntry struct {
	p    geom.Point
	here bool // point stored in this leaf (vs. absorbed by an ancestor)
}

// Options configures Create/Build.
type Options struct {
	// A is the branching parameter (default max(2, B/4)).
	A int
	// K is the leaf parameter (default B).
	K int
	// Alpha is the sweep coalescing parameter of the per-node small
	// structures (default smallstruct.DefaultAlpha).
	Alpha int
}

func (o *Options) fill(pageSize int) (a, k, alpha int, err error) {
	b := eio.BlockCapacity(pageSize)
	a, k, alpha = o.A, o.K, o.Alpha
	if a == 0 {
		a = b / 4
		if a < 2 {
			a = 2
		}
	}
	if k == 0 {
		k = b
		if k < 2 {
			k = 2
		}
	}
	if alpha == 0 {
		alpha = smallstruct.DefaultAlpha
	}
	if a < 2 || k < 2 || alpha < 2 {
		return 0, 0, 0, fmt.Errorf("epst: invalid parameters a=%d k=%d alpha=%d", a, k, alpha)
	}
	return a, k, alpha, nil
}

// yHalf is the Y-set refill threshold B/2 from the paper.
func (t *Tree) yHalf() int { return t.b / 2 }

// Create makes an empty tree on store.
func Create(store eio.Store, opts Options) (*Tree, error) {
	return Build(store, opts, nil)
}

// Build bulk-loads a tree over pts (distinct points; the slice is not
// modified).
func Build(store eio.Store, opts Options, pts []geom.Point) (*Tree, error) {
	a, k, alpha, err := opts.fill(store.PageSize())
	if err != nil {
		return nil, err
	}
	t := &Tree{
		store: store,
		rs:    eio.NewRecordStore(store),
		b:     eio.BlockCapacity(store.PageSize()),
		a:     a, k: k, alpha: alpha,
	}
	if t.b < 2 {
		return nil, fmt.Errorf("epst: page size %d holds fewer than 2 points", store.PageSize())
	}
	seen := make(map[geom.Point]bool, len(pts))
	for _, p := range pts {
		if seen[p] {
			return nil, fmt.Errorf("epst: build with duplicate %v: %w", p, ErrDuplicate)
		}
		seen[p] = true
	}
	sorted := make([]geom.Point, len(pts))
	copy(sorted, pts)
	geom.SortByX(sorted)
	root, height, err := t.bulkBuild(sorted)
	if err != nil {
		return nil, err
	}
	m := &meta{root: root, height: height, live: int64(len(pts)), basis: int64(len(pts)), a: int32(a), k: int32(k)}
	t.hdr, err = t.rs.Put(encodeMeta(m))
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to a tree previously created on store. opts must carry the
// same Alpha it was created with (A and K are read from the header).
func Open(store eio.Store, hdr eio.PageID, alpha int) (*Tree, error) {
	t := &Tree{
		store: store,
		rs:    eio.NewRecordStore(store),
		b:     eio.BlockCapacity(store.PageSize()),
		hdr:   hdr,
	}
	if alpha == 0 {
		alpha = smallstruct.DefaultAlpha
	}
	t.alpha = alpha
	m, err := t.loadMeta()
	if err != nil {
		return nil, err
	}
	t.a, t.k = int(m.a), int(m.k)
	return t, nil
}

// HeaderID identifies the tree on its store.
func (t *Tree) HeaderID() eio.PageID { return t.hdr }

// B returns the block capacity in points.
func (t *Tree) B() int { return t.b }

// Params returns the branching and leaf parameters.
func (t *Tree) Params() (a, k int) { return t.a, t.k }

// Len returns the number of stored points.
func (t *Tree) Len() (int, error) {
	m, err := t.loadMeta()
	if err != nil {
		return 0, err
	}
	return int(m.live), nil
}

// Height returns the base-tree height (0 = root is a leaf).
func (t *Tree) Height() (int, error) {
	m, err := t.loadMeta()
	if err != nil {
		return 0, err
	}
	return m.height, nil
}

func (t *Tree) loadMeta() (*meta, error) {
	m := new(meta)
	if _, err := t.readMeta(m, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// readMeta reads the header record into m, using rec as the record
// buffer, and returns rec for reuse.
func (t *Tree) readMeta(m *meta, rec []byte) ([]byte, error) {
	rec, err := t.rs.AppendRecord(rec[:0], t.hdr)
	if err != nil {
		return rec, fmt.Errorf("epst: load header: %w", err)
	}
	if len(rec) != metaSize {
		return rec, fmt.Errorf("epst: header length %d", len(rec))
	}
	*m = meta{
		root:   eio.PageID(binary.LittleEndian.Uint64(rec[0:])),
		height: int(binary.LittleEndian.Uint32(rec[8:])),
		live:   int64(binary.LittleEndian.Uint64(rec[12:])),
		basis:  int64(binary.LittleEndian.Uint64(rec[20:])),
		a:      int32(binary.LittleEndian.Uint32(rec[28:])),
		k:      int32(binary.LittleEndian.Uint32(rec[32:])),
	}
	return rec, nil
}

func (t *Tree) storeMeta(m *meta) error {
	if err := t.rs.Update(t.hdr, encodeMeta(m)); err != nil {
		return fmt.Errorf("epst: store header: %w", err)
	}
	return nil
}

func encodeMeta(m *meta) []byte {
	out := make([]byte, metaSize)
	binary.LittleEndian.PutUint64(out[0:], uint64(m.root))
	binary.LittleEndian.PutUint32(out[8:], uint32(m.height))
	binary.LittleEndian.PutUint64(out[12:], uint64(m.live))
	binary.LittleEndian.PutUint64(out[20:], uint64(m.basis))
	binary.LittleEndian.PutUint32(out[28:], uint32(m.a))
	binary.LittleEndian.PutUint32(out[32:], uint32(m.k))
	return out
}

// openQ attaches to a node's small structure.
func (t *Tree) openQ(id eio.PageID) (*smallstruct.Struct, error) {
	return smallstruct.Open(t.store, id, t.alpha)
}

// newSmall creates a small structure over pts on the tree's store.
func newSmall(t *Tree, pts []geom.Point) (*smallstruct.Struct, error) {
	return smallstruct.Create(t.store, t.alpha, pts)
}

// childRange returns the composite key range (lo, hi] of child i of n:
// keys strictly greater than the previous child's maxKey and at most the
// child's own maxKey (the last child's hi is +∞).
func childRange(n *node, i int) (lo, hi geom.Point, loOpen bool) {
	hi = n.entries[i].maxKey
	if i == len(n.entries)-1 {
		hi = geom.Point{X: geom.MaxCoord, Y: geom.MaxCoord}
	}
	if i == 0 {
		return geom.Point{X: geom.MinCoord, Y: geom.MinCoord}, hi, false
	}
	return n.entries[i-1].maxKey, hi, true
}

// inChildRange reports whether p belongs to child i's composite range.
func inChildRange(n *node, i int, p geom.Point) bool {
	lo, hi, loOpen := childRange(n, i)
	if loOpen {
		if !lo.Less(p) {
			return false
		}
	} else if p.Less(lo) {
		return false
	}
	return !hi.Less(p)
}

// ySet retrieves Y(child i) of node n from q: the points of Q within the
// child's composite range. It queries by x-interval and filters by
// composite range, so shared boundary x-values cost extra reads but stay
// correct.
func (t *Tree) ySet(q *smallstruct.Struct, n *node, i int) ([]geom.Point, error) {
	lo, hi, _ := childRange(n, i)
	raw, err := q.Query3(nil, geom.Query3{XLo: lo.X, XHi: hi.X, YLo: geom.MinCoord})
	if err != nil {
		return nil, err
	}
	out := raw[:0]
	for _, p := range raw {
		if inChildRange(n, i, p) {
			out = append(out, p)
		}
	}
	return out, nil
}

// routeChild returns the index of the child whose composite range contains
// p: the first child with maxKey ≥ p, or the last child.
func routeChild(n *node, p geom.Point) int {
	for i := range n.entries {
		if !n.entries[i].maxKey.Less(p) {
			return i
		}
	}
	return len(n.entries) - 1
}

// --- node serialization ---

const nodeEntrySize = 16 + 8 + 8 + 4

func encodeNode(n *node) []byte {
	if n.level == 0 {
		out := make([]byte, 8+17*len(n.keys))
		binary.LittleEndian.PutUint32(out[0:], uint32(n.level))
		binary.LittleEndian.PutUint32(out[4:], uint32(len(n.keys)))
		off := 8
		for _, ke := range n.keys {
			eio.PutPoint(out, off, ke.p)
			if ke.here {
				out[off+16] = 1
			}
			off += 17
		}
		return out
	}
	out := make([]byte, 16+nodeEntrySize*len(n.entries))
	binary.LittleEndian.PutUint32(out[0:], uint32(n.level))
	binary.LittleEndian.PutUint32(out[4:], uint32(len(n.entries)))
	binary.LittleEndian.PutUint64(out[8:], uint64(n.q))
	off := 16
	for i := range n.entries {
		e := &n.entries[i]
		eio.PutPoint(out, off, e.maxKey)
		binary.LittleEndian.PutUint64(out[off+16:], uint64(e.child))
		binary.LittleEndian.PutUint64(out[off+24:], uint64(e.weight))
		binary.LittleEndian.PutUint32(out[off+32:], uint32(e.ysize))
		off += nodeEntrySize
	}
	return out
}

// decode is the inverse of encodeNode. It overwrites n, reusing the
// storage of its entries and keys.
func (n *node) decode(raw []byte) error {
	if len(raw) < 8 {
		return fmt.Errorf("epst: node record too short")
	}
	level := int(binary.LittleEndian.Uint32(raw[0:]))
	count := int(binary.LittleEndian.Uint32(raw[4:]))
	n.level, n.q = level, eio.NilPage
	n.entries, n.keys = n.entries[:0], n.keys[:0]
	if level == 0 {
		if len(raw) != 8+17*count {
			return fmt.Errorf("epst: leaf record length %d for %d keys", len(raw), count)
		}
		n.keys = slices.Grow(n.keys, count)[:count]
		off := 8
		for i := 0; i < count; i++ {
			n.keys[i] = keyEntry{p: eio.GetPoint(raw, off), here: raw[off+16] == 1}
			off += 17
		}
		return nil
	}
	if len(raw) != 16+nodeEntrySize*count {
		return fmt.Errorf("epst: node record length %d for %d entries", len(raw), count)
	}
	n.q = eio.PageID(binary.LittleEndian.Uint64(raw[8:]))
	n.entries = slices.Grow(n.entries, count)[:count]
	off := 16
	for i := 0; i < count; i++ {
		n.entries[i] = entry{
			maxKey: eio.GetPoint(raw, off),
			child:  eio.PageID(binary.LittleEndian.Uint64(raw[off+16:])),
			weight: int64(binary.LittleEndian.Uint64(raw[off+24:])),
			ysize:  int32(binary.LittleEndian.Uint32(raw[off+32:])),
		}
		off += nodeEntrySize
	}
	return nil
}

func (t *Tree) readNode(id eio.PageID) (*node, error) {
	n := new(node)
	if _, err := t.readNodeInto(n, id, nil); err != nil {
		return nil, err
	}
	return n, nil
}

// readNodeInto reads node id into n, reusing n's storage and rec as the
// record buffer, and returns rec for reuse.
func (t *Tree) readNodeInto(n *node, id eio.PageID, rec []byte) ([]byte, error) {
	rec, err := t.rs.AppendRecord(rec[:0], id)
	if err != nil {
		return rec, fmt.Errorf("epst: read node: %w", err)
	}
	return rec, n.decode(rec)
}

// queryScratch is the working storage of one 3-sided query: the record
// buffer every header and node read decodes from, one decoded-node slot
// per depth of the descent (a node's entries are still needed after its
// children return), and the small-structure handle and decode storage
// re-attached at every internal node. A query takes one from
// queryScratches and puts it back when it returns, so concurrent queries
// never share one.
type queryScratch struct {
	rec   []byte
	nodes []*node
	q     smallstruct.Struct
	qs    smallstruct.Scratch
}

var queryScratches = sync.Pool{New: func() any { return new(queryScratch) }}

func (t *Tree) writeNode(id eio.PageID, n *node) (eio.PageID, error) {
	raw := encodeNode(n)
	if id == eio.NilPage {
		nid, err := t.rs.Put(raw)
		if err != nil {
			return eio.NilPage, fmt.Errorf("epst: write node: %w", err)
		}
		return nid, nil
	}
	if err := t.rs.Update(id, raw); err != nil {
		return eio.NilPage, fmt.Errorf("epst: update node: %w", err)
	}
	return id, nil
}

func (t *Tree) writeBack(id eio.PageID, n *node) error {
	_, err := t.writeNode(id, n)
	return err
}

// lowerBoundKeys returns the first index i with keys[i].p ≥ p.
func lowerBoundKeys(keys []keyEntry, p geom.Point) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid].p.Less(p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
