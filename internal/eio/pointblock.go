package eio

import (
	"encoding/binary"
	"fmt"

	"rangesearch/internal/geom"
)

// Point-block helpers. A point block is a page holding up to
// B = PageSize/PointSize points, packed as little-endian (x, y) int64
// pairs with no header: the owning structure's catalog tracks the count,
// exactly as the paper's catalog blocks track x-ranges and y-intervals.

// PutPoint serializes p at offset off of buf.
func PutPoint(buf []byte, off int, p geom.Point) {
	binary.LittleEndian.PutUint64(buf[off:], uint64(p.X))
	binary.LittleEndian.PutUint64(buf[off+8:], uint64(p.Y))
}

// GetPoint deserializes the point at offset off of buf.
func GetPoint(buf []byte, off int) geom.Point {
	return geom.Point{
		X: int64(binary.LittleEndian.Uint64(buf[off:])),
		Y: int64(binary.LittleEndian.Uint64(buf[off+8:])),
	}
}

// EncodePoints packs pts into buf starting at offset 0 and returns the
// number of bytes used. It panics if pts does not fit.
func EncodePoints(buf []byte, pts []geom.Point) int {
	if len(pts)*PointSize > len(buf) {
		panic(fmt.Sprintf("eio: %d points do not fit in %d bytes", len(pts), len(buf)))
	}
	for i, p := range pts {
		PutPoint(buf, i*PointSize, p)
	}
	return len(pts) * PointSize
}

// WritePointBlock allocates (if id is NilPage) or overwrites a page with
// pts and returns the page id. len(pts) must be at most BlockCapacity.
func WritePointBlock(s Store, id PageID, pts []geom.Point) (PageID, error) {
	if len(pts) > BlockCapacity(s.PageSize()) {
		return NilPage, fmt.Errorf("eio: %d points exceed block capacity %d", len(pts), BlockCapacity(s.PageSize()))
	}
	if id == NilPage {
		var err error
		id, err = s.Alloc()
		if err != nil {
			return NilPage, err
		}
	}
	buf := make([]byte, s.PageSize())
	EncodePoints(buf, pts)
	if err := s.Write(id, buf); err != nil {
		return NilPage, err
	}
	return id, nil
}

// ReadPointBlock reads n points from page id, appending to dst.
func ReadPointBlock(dst []geom.Point, s Store, id PageID, n int) ([]geom.Point, error) {
	return FilterPointBlock(dst, s, id, n, nil)
}

// FilterPointBlock reads page id and appends to dst each of its first n
// points that keep accepts (every point when keep is nil). The points are
// decoded straight off a pooled page buffer, released before
// FilterPointBlock returns, so with a pre-sized dst the read allocates
// nothing. A count beyond the block's capacity fails with ErrBadRecord.
func FilterPointBlock(dst []geom.Point, s Store, id PageID, n int, keep func(geom.Point) bool) ([]geom.Point, error) {
	ps := s.PageSize()
	if n < 0 || n > BlockCapacity(ps) {
		return dst, fmt.Errorf("eio: page %d: %d points exceed block capacity %d: %w", id, n, BlockCapacity(ps), ErrBadRecord)
	}
	pb := borrowPage(ps)
	defer releasePage(pb)
	buf := *pb
	if err := s.Read(id, buf); err != nil {
		return dst, err
	}
	for off := 0; off < n*PointSize; off += PointSize {
		if p := GetPoint(buf, off); keep == nil || keep(p) {
			dst = append(dst, p)
		}
	}
	return dst, nil
}
