package eio

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// RecordStore stores variable-length byte records on a Store as chains of
// pages. A record that needs k pages costs exactly k I/Os to read and Θ(k)
// to write, matching the paper's accounting for logical nodes that occupy
// "O(1) catalog blocks" or "O(B) index blocks".
//
// Chain layout: every page starts with an 8-byte next-page id; the first
// page additionally carries the record length as 8 bytes. The record id is
// the id of its first page.
type RecordStore struct {
	s Store
}

const (
	chainNextOff  = 0
	chainHdrFirst = 16 // next + length
	chainHdrRest  = 8  // next only

	// maxRecordPrealloc caps how far AppendRecord grows its destination
	// from the length a head page claims, so a corrupt length fails as a
	// truncated chain instead of as a huge allocation.
	maxRecordPrealloc = 1 << 20
)

// NewRecordStore returns a RecordStore over s.
func NewRecordStore(s Store) *RecordStore { return &RecordStore{s: s} }

// Store returns the underlying page store.
func (r *RecordStore) Store() Store { return r.s }

// PagesFor returns the number of pages a record of n bytes occupies.
func (r *RecordStore) PagesFor(n int) int {
	ps := r.s.PageSize()
	first := ps - chainHdrFirst
	if n <= first {
		return 1
	}
	rest := ps - chainHdrRest
	return 1 + (n-first+rest-1)/rest
}

// Put writes data as a new record and returns its id.
func (r *RecordStore) Put(data []byte) (PageID, error) {
	return r.write(NilPage, data)
}

// Update rewrites the record id with data, reusing the existing chain's
// pages and allocating or freeing pages as the length changes. The record
// keeps its id.
func (r *RecordStore) Update(id PageID, data []byte) error {
	if id == NilPage {
		return fmt.Errorf("eio: update of nil record: %w", ErrBadRecord)
	}
	_, err := r.write(id, data)
	return err
}

// write stores data in a chain starting at reuse (NilPage to allocate a
// fresh chain) and returns the chain head.
//
// The operation order is chosen for failure atomicity of the chain
// structure: tail pages are written first, the head page — which commits
// the new length and the link into the rest of the chain — second, and
// surplus pages of a shrinking record are freed only after the head no
// longer references them. An I/O failure at any point therefore leaves a
// walkable chain (never a link to a freed page); freshly allocated pages
// are released best-effort so a failed grow does not leak.
func (r *RecordStore) write(reuse PageID, data []byte) (PageID, error) {
	ps := r.s.PageSize()
	pb := borrowPage(ps)
	defer releasePage(pb)
	buf := *pb

	// Collect reusable pages from the old chain.
	var reusable []PageID
	if reuse != NilPage {
		var err error
		reusable, err = r.chain(reuse)
		if err != nil {
			return NilPage, err
		}
	}
	need := r.PagesFor(len(data))
	var surplus []PageID
	pages := reusable
	if len(pages) > need {
		surplus = pages[need:]
		pages = pages[:need]
	}
	var fresh []PageID
	for len(pages) < need {
		id, err := r.s.Alloc()
		if err != nil {
			freeAll(r.s, fresh)
			return NilPage, fmt.Errorf("eio: grow record: %w", err)
		}
		fresh = append(fresh, id)
		pages = append(pages, id)
	}

	// Byte ranges: the first page holds firstCap bytes after its 16-byte
	// header, every later page restCap bytes after its 8-byte header.
	firstCap := ps - chainHdrFirst
	restCap := ps - chainHdrRest
	writePage := func(i int) error {
		clear(buf)
		next := NilPage
		if i+1 < need {
			next = pages[i+1]
		}
		binary.LittleEndian.PutUint64(buf[chainNextOff:], uint64(next))
		var chunk []byte
		if i == 0 {
			binary.LittleEndian.PutUint64(buf[8:], uint64(len(data)))
			chunk = data[:min(firstCap, len(data))]
			copy(buf[chainHdrFirst:], chunk)
		} else {
			start := firstCap + (i-1)*restCap
			chunk = data[start:min(start+restCap, len(data))]
			copy(buf[chainHdrRest:], chunk)
		}
		if err := r.s.Write(pages[i], buf); err != nil {
			return fmt.Errorf("eio: write record page: %w", err)
		}
		return nil
	}
	for i := 1; i < need; i++ {
		if err := writePage(i); err != nil {
			freeAll(r.s, fresh)
			return NilPage, err
		}
	}
	if err := writePage(0); err != nil {
		freeAll(r.s, fresh)
		return NilPage, err
	}
	for _, id := range surplus {
		if err := r.s.Free(id); err != nil {
			return NilPage, fmt.Errorf("eio: shrink record: %w", err)
		}
	}
	return pages[0], nil
}

// freeAll releases ids best-effort (used for cleanup on a failed write,
// where the original error is the one worth reporting).
func freeAll(s Store, ids []PageID) {
	for _, id := range ids {
		_ = s.Free(id)
	}
}

// Get reads the record id in full into a new slice.
func (r *RecordStore) Get(id PageID) ([]byte, error) {
	return r.AppendRecord(nil, id)
}

// AppendRecord appends the contents of record id to dst and returns the
// extended slice: the read into a caller-owned buffer. A caller that
// passes the same buffer back as dst[:0] reads without allocating once
// the buffer has grown to the record's length. The chain's pages stage
// through a pooled page buffer released before AppendRecord returns. On
// error dst is returned at its original length.
func (r *RecordStore) AppendRecord(dst []byte, id PageID) ([]byte, error) {
	if id == NilPage {
		return dst, fmt.Errorf("eio: get of nil record: %w", ErrBadRecord)
	}
	ps := r.s.PageSize()
	pb := borrowPage(ps)
	defer releasePage(pb)
	buf := *pb
	if err := r.s.Read(id, buf); err != nil {
		return dst, err
	}
	next := PageID(binary.LittleEndian.Uint64(buf[chainNextOff:]))
	length := int(binary.LittleEndian.Uint64(buf[8:]))
	if length < 0 || length > 1<<40 {
		return dst, fmt.Errorf("eio: record %d length %d: %w", id, length, ErrBadRecord)
	}
	base := len(dst)
	dst = slices.Grow(dst, min(length, maxRecordPrealloc))
	dst = append(dst, buf[chainHdrFirst:min(ps, chainHdrFirst+length)]...)
	for next != NilPage && len(dst)-base < length {
		if err := r.s.Read(next, buf); err != nil {
			return dst[:base], err
		}
		next = PageID(binary.LittleEndian.Uint64(buf[chainNextOff:]))
		dst = append(dst, buf[chainHdrRest:min(ps, chainHdrRest+length-(len(dst)-base))]...)
	}
	if got := len(dst) - base; got != length {
		return dst[:base], fmt.Errorf("eio: record %d truncated (%d of %d bytes): %w", id, got, length, ErrBadRecord)
	}
	return dst, nil
}

// Delete frees every page of the record id.
func (r *RecordStore) Delete(id PageID) error {
	if id == NilPage {
		return nil
	}
	pages, err := r.chain(id)
	if err != nil {
		return err
	}
	for _, p := range pages {
		if err := r.s.Free(p); err != nil {
			return err
		}
	}
	return nil
}

// Chain returns the page ids occupied by record id, head first. It is the
// exact reachability primitive for Scrub: a structure's reachable page set
// is the union of the chains of every record it can name.
func (r *RecordStore) Chain(id PageID) ([]PageID, error) { return r.chain(id) }

// chain returns the page ids of record id in order.
func (r *RecordStore) chain(id PageID) ([]PageID, error) {
	pb := borrowPage(r.s.PageSize())
	defer releasePage(pb)
	buf := *pb
	var pages []PageID
	for cur := id; cur != NilPage; {
		if err := r.s.Read(cur, buf); err != nil {
			return nil, err
		}
		pages = append(pages, cur)
		cur = PageID(binary.LittleEndian.Uint64(buf[chainNextOff:]))
		if len(pages) > 1<<24 {
			return nil, fmt.Errorf("eio: record %d: cycle in chain: %w", id, ErrBadRecord)
		}
	}
	return pages, nil
}
