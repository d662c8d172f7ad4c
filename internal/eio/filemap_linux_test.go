//go:build linux

package eio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// mapped reports whether the next read of id copies from fs's mapping
// rather than falling back to pread: the mapping exists and the page lies
// inside both the reservation and the length known to be on disk.
func mapped(fs *FileStore, id PageID) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	end := fs.off(id) + int64(fs.slotSize())
	return !fs.m.failed && end <= fs.m.size && end <= int64(len(fs.m.data))
}

func mustRead(t *testing.T, fs *FileStore, id PageID, want byte) {
	t.Helper()
	buf := make([]byte, fs.PageSize())
	if err := fs.Read(id, buf); err != nil {
		t.Fatalf("read page %d: %v", id, err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{want}, len(buf))) {
		t.Fatalf("page %d read back %x…, want all %02x", id, buf[:4], want)
	}
}

// TestFileMapSeesLaterWrites checks that a pwrite after the mapping exists
// is visible through it at once: the mapping is never a stale copy.
func TestFileMapSeesLaterWrites(t *testing.T) {
	fs, ids := newSlotStore(t, 3)
	mustRead(t, fs, ids[0], 1)
	if !mapped(fs, ids[2]) {
		t.Fatal("first read did not map the store")
	}
	if err := fs.Write(ids[2], bytes.Repeat([]byte{0x5A}, 64)); err != nil {
		t.Fatal(err)
	}
	mustRead(t, fs, ids[2], 0x5A)
	if !mapped(fs, ids[2]) {
		t.Fatal("rewritten page is no longer served from the mapping")
	}
}

// TestFileMapGrowsPastReservation appends far past the first reservation,
// reading each new page as soon as it is written: every page reads back,
// and the store remaps O(log size) times, not once per page.
func TestFileMapGrowsPastReservation(t *testing.T) {
	fs, ids := newSlotStore(t, 1)
	mustRead(t, fs, ids[0], 1)
	first := len(fs.m.data)
	remaps, last := 0, first
	const n = 2000 // 2000 × 72 B slots: well past a 4 KiB reservation
	for i := 0; i < n; i++ {
		id, err := fs.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		fill := byte(i%250 + 2)
		if err := fs.Write(id, bytes.Repeat([]byte{fill}, 64)); err != nil {
			t.Fatal(err)
		}
		mustRead(t, fs, id, fill)
		if !mapped(fs, id) {
			t.Fatalf("page %d not served from the mapping after reading it", id)
		}
		if l := len(fs.m.data); l != last {
			remaps, last = remaps+1, l
		}
	}
	if last <= first {
		t.Fatalf("reservation did not grow: %d bytes, first %d", last, first)
	}
	if remaps > 8 { // doubling from 4 KiB to ~144 KiB takes ~6
		t.Fatalf("%d remaps to grow from %d to %d bytes; want O(log size)", remaps, first, last)
	}
	mustRead(t, fs, ids[0], 1)
}

// TestFileMapFailedReadLeavesBuffer repeats the slot-buffer failure checks
// with the pages known to be served from the mapping: a torn page still
// fails with ErrChecksum and a freed one with ErrBadPage, and neither
// touches the caller's buffer.
func TestFileMapFailedReadLeavesBuffer(t *testing.T) {
	fs, ids := newSlotStore(t, 3)
	if err := fs.writeRaw(ids[1], []byte{0xEE, 0xEE}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	mustRead(t, fs, ids[0], 1)
	sentinel := bytes.Repeat([]byte{0xAB}, 64)
	buf := append([]byte(nil), sentinel...)
	for _, c := range []struct {
		id   PageID
		want error
	}{{ids[1], ErrChecksum}, {ids[2], ErrBadPage}} {
		if !mapped(fs, c.id) {
			t.Fatalf("page %d is not served from the mapping", c.id)
		}
		if err := fs.Read(c.id, buf); !errors.Is(err, c.want) {
			t.Fatalf("read page %d: %v, want %v", c.id, err, c.want)
		}
		if !bytes.Equal(buf, sentinel) {
			t.Fatalf("failed read of page %d overwrote the caller's buffer", c.id)
		}
	}
}

// TestFileMapTruncatedUnderneath shrinks the file behind a live mapping.
// Copying a page that now lies past the end faults (SIGBUS); the read
// must return an error instead of killing the process, and pages still
// inside the file keep reading.
func TestFileMapTruncatedUnderneath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc.db")
	fs, err := CreateFileStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var ids []PageID
	for i := 0; i < 300; i++ { // 300 × 72 B slots span several OS pages
		id, err := fs.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(id, bytes.Repeat([]byte{byte(i%250 + 1)}, 64)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	last := ids[len(ids)-1]
	mustRead(t, fs, last, byte((len(ids)-1)%250+1))
	if err := os.Truncate(path, int64(os.Getpagesize())); err != nil {
		t.Fatal(err)
	}
	if !mapped(fs, last) {
		t.Fatal("the stale mapping should still claim the last page")
	}
	buf := make([]byte, 64)
	if err := fs.Read(last, buf); err == nil {
		t.Fatal("read of a page past the truncated end succeeded")
	}
	if fs.m.size != 0 {
		t.Fatalf("the read did not fault in the mapping (known size %d)", fs.m.size)
	}
	mustRead(t, fs, ids[0], 1)
	if err := fs.Read(last, buf); err == nil {
		t.Fatal("second read past the truncated end succeeded")
	}
}

// TestFileMapFallbackAndClose checks the pread path a failed mmap leaves
// (same pages, same errors) and that Close and CloseCrash unmap the file
// so later reads fail cleanly.
func TestFileMapFallbackAndClose(t *testing.T) {
	fs, ids := newSlotStore(t, 2)
	fs.m.failed = true
	mustRead(t, fs, ids[1], 2)
	if err := fs.writeRaw(ids[0], []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Read(ids[0], make([]byte, 64)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("pread fallback on a torn page: %v, want ErrChecksum", err)
	}
	if fs.m.data != nil {
		t.Fatal("a failed mapping holds memory")
	}

	for _, crash := range []bool{false, true} {
		fs, ids := newSlotStore(t, 2)
		mustRead(t, fs, ids[1], 2)
		if fs.m.data == nil {
			t.Fatal("read did not map the store")
		}
		closeFn := fs.Close
		if crash {
			closeFn = fs.CloseCrash
		}
		if err := closeFn(); err != nil {
			t.Fatal(err)
		}
		if fs.m.data != nil {
			t.Fatalf("close (crash=%v) left the file mapped", crash)
		}
		if err := fs.Read(ids[1], make([]byte, 64)); err == nil {
			t.Fatalf("read after close (crash=%v) succeeded", crash)
		}
	}
}
