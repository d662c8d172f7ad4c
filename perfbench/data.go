package main

import (
	"math"
	"math/rand"
	"sort"

	"rangesearch/internal/geom"
)

const (
	// domainBits sets the coordinate domain [0, 2^30) on both axes.
	domainBits = 30
	domain     = int64(1) << domainBits
	// bucketBits is the x-width of one model bucket (2^16), so a stripe
	// of 2^29 holds 8192 buckets of about 60 points each at N = 1M.
	bucketBits = 16
	// targetOut is the expected QUERY3 output size the y-bound is set for.
	targetOut = 32
)

// genPoints returns n distinct points uniform in [0, domain)², fully
// determined by seed.
func genPoints(seed int64, n int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		for len(pts) < n {
			pts = append(pts, geom.Point{X: rng.Int63n(domain), Y: rng.Int63n(domain)})
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].Less(pts[j]) })
		k := 0
		for i, p := range pts {
			if i == 0 || p != pts[k-1] {
				pts[k] = p
				k++
			}
		}
		pts = pts[:k]
	}
	return pts
}

// model is the exact live point set of one x-stripe [lo, hi): buckets of
// 2^bucketBits x-width, each sorted by y descending, answer a 3-sided
// query with one binary search per bucket, and a dense slice with an
// index map draws a uniformly random live point in O(1).
type model struct {
	lo, hi  int64
	buckets [][]geom.Point
	live    []geom.Point
	pos     map[geom.Point]int
}

// newModel builds the model of the points of pts that fall in [lo, hi).
func newModel(lo, hi int64, pts []geom.Point) *model {
	m := &model{
		lo:      lo,
		hi:      hi,
		buckets: make([][]geom.Point, (hi-lo)>>bucketBits),
		pos:     make(map[geom.Point]int),
	}
	for _, p := range pts {
		if p.X >= lo && p.X < hi {
			b := m.bucket(p.X)
			m.buckets[b] = append(m.buckets[b], p)
			m.pos[p] = len(m.live)
			m.live = append(m.live, p)
		}
	}
	for _, b := range m.buckets {
		sort.Slice(b, func(i, j int) bool { return yDesc(b[i], b[j]) })
	}
	return m
}

func yDesc(a, b geom.Point) bool {
	if a.Y != b.Y {
		return a.Y > b.Y
	}
	return a.X < b.X
}

func (m *model) bucket(x int64) int { return int((x - m.lo) >> bucketBits) }

func (m *model) has(p geom.Point) bool {
	_, ok := m.pos[p]
	return ok
}

func (m *model) len() int { return len(m.live) }

func (m *model) insert(p geom.Point) {
	if m.has(p) {
		return
	}
	m.pos[p] = len(m.live)
	m.live = append(m.live, p)
	b := m.buckets[m.bucket(p.X)]
	i := sort.Search(len(b), func(i int) bool { return !yDesc(b[i], p) })
	b = append(b, geom.Point{})
	copy(b[i+1:], b[i:])
	b[i] = p
	m.buckets[m.bucket(p.X)] = b
}

func (m *model) remove(p geom.Point) {
	i, ok := m.pos[p]
	if !ok {
		return
	}
	last := m.live[len(m.live)-1]
	m.live[i] = last
	m.pos[last] = i
	m.live = m.live[:len(m.live)-1]
	delete(m.pos, p)
	b := m.buckets[m.bucket(p.X)]
	k := sort.Search(len(b), func(k int) bool { return !yDesc(b[k], p) })
	m.buckets[m.bucket(p.X)] = append(b[:k], b[k+1:]...)
}

// randomLive returns a uniformly random live point.
func (m *model) randomLive(rng *rand.Rand) geom.Point {
	return m.live[rng.Intn(len(m.live))]
}

// query appends the live points with x in [xlo, xhi] and y >= ylo.
func (m *model) query(dst []geom.Point, xlo, xhi, ylo int64) []geom.Point {
	if xlo < m.lo {
		xlo = m.lo
	}
	if xhi >= m.hi {
		xhi = m.hi - 1
	}
	if xlo > xhi {
		return dst
	}
	for b := m.bucket(xlo); b <= m.bucket(xhi); b++ {
		pts := m.buckets[b]
		n := sort.Search(len(pts), func(i int) bool { return pts[i].Y < ylo })
		for _, p := range pts[:n] {
			if p.X >= xlo && p.X <= xhi {
				dst = append(dst, p)
			}
		}
	}
	return dst
}

// queryRect draws one QUERY3 window inside [lo, hi): an x-width
// log-uniform between 2^-10 and 2^-2 of the domain, and a y-bound that
// makes the expected output targetOut points over n uniform points.
func queryRect(rng *rand.Rand, lo, hi int64, n int) geom.Rect {
	w := int64(math.Exp2(domainBits - 10 + 8*rng.Float64()))
	xlo := lo + rng.Int63n(hi-lo-w+1)
	above := float64(targetOut) * float64(domain) * float64(domain) / (float64(n) * float64(w))
	return geom.Rect{XLo: xlo, XHi: xlo + w - 1, YLo: domain - int64(above), YHi: geom.MaxCoord}
}

// freshPoint draws a uniformly random point of [lo, hi) × [0, domain)
// that ok accepts.
func freshPoint(rng *rand.Rand, lo, hi int64, ok func(geom.Point) bool) geom.Point {
	for {
		p := geom.Point{X: lo + rng.Int63n(hi-lo), Y: rng.Int63n(domain)}
		if ok(p) {
			return p
		}
	}
}

// sortPoints orders pts canonically (x, then y).
func sortPoints(pts []geom.Point) {
	sort.Slice(pts, func(i, j int) bool { return pts[i].Less(pts[j]) })
}
