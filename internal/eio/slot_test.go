package eio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync"
	"testing"
)

// TestPageCRCMatchesIDPrefix pins pageCRC to its on-disk definition — the
// CRC-32C of the page id's 8 little-endian bytes followed by the page —
// and checks it allocates nothing.
func TestPageCRCMatchesIDPrefix(t *testing.T) {
	data := bytes.Repeat([]byte("checksum"), 64)
	for _, id := range []PageID{1, 2, 255, 256, 1 << 32, 1<<64 - 1} {
		var idb [8]byte
		binary.LittleEndian.PutUint64(idb[:], uint64(id))
		want := crc32.Update(crc32.Update(0, castagnoli, idb[:]), castagnoli, data)
		if got := pageCRC(id, data); got != want {
			t.Fatalf("pageCRC(%d) = %08x, want %08x", id, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { pageCRC(7, data) }); n != 0 {
		t.Fatalf("pageCRC: %.0f allocs, want 0", n)
	}
}

// newSlotStore creates a file store with n data pages, page i filled with
// byte i+1.
func newSlotStore(t *testing.T, n int) (*FileStore, []PageID) {
	t.Helper()
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "slot.db"), 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	ids := make([]PageID, n)
	for i := range ids {
		if ids[i], err = fs.Alloc(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(ids[i], bytes.Repeat([]byte{byte(i + 1)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	return fs, ids
}

// TestFileStoreFailedReadLeavesBuffer checks that a read staged through
// the shared slot buffer fails without touching the caller's buffer: a
// checksum mismatch still reports ErrChecksum (the slot already holds a
// good page from the previous read), and a freed page reports ErrBadPage.
func TestFileStoreFailedReadLeavesBuffer(t *testing.T) {
	fs, ids := newSlotStore(t, 3)
	if err := fs.writeRaw(ids[1], []byte{0xEE, 0xEE}); err != nil { // tear page 2
		t.Fatal(err)
	}
	if err := fs.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := fs.Read(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	sentinel := bytes.Repeat([]byte{0xAB}, 64)
	copy(buf, sentinel)
	if err := fs.Read(ids[1], buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("read of torn page: %v, want ErrChecksum", err)
	}
	if !bytes.Equal(buf, sentinel) {
		t.Fatal("failed checksum read overwrote the caller's buffer")
	}
	if err := fs.Read(ids[2], buf); !errors.Is(err, ErrBadPage) {
		t.Fatalf("read of freed page: %v, want ErrBadPage", err)
	}
	if !bytes.Equal(buf, sentinel) {
		t.Fatal("read of a freed page overwrote the caller's buffer")
	}
	if err := fs.Read(ids[0], buf); err != nil || !bytes.Equal(buf, bytes.Repeat([]byte{1}, 64)) {
		t.Fatalf("read after failures: %v, %x", err, buf[:4])
	}
}

// TestFileStoreInternalReadsUseSlot checks that LivePageIDs, EnsurePage
// and the free-list pop in Alloc read through the mu-guarded slot buffer:
// each leaves its page in the slot, page reads and writes allocate
// nothing, and the pop still verifies the free node's checksum.
func TestFileStoreInternalReadsUseSlot(t *testing.T) {
	fs, ids := newSlotStore(t, 3)
	inSlot := func(fill byte) bool { return bytes.Equal(fs.slot[:fs.pageSize], bytes.Repeat([]byte{fill}, 64)) }

	if _, err := fs.LivePageIDs(); err != nil {
		t.Fatal(err)
	}
	if !inSlot(3) {
		t.Fatal("LivePageIDs did not read through the slot buffer")
	}
	if err := fs.EnsurePage(ids[0]); err != nil {
		t.Fatal(err)
	}
	if !inSlot(1) {
		t.Fatal("EnsurePage did not read through the slot buffer")
	}
	buf := bytes.Repeat([]byte{2}, 64) // page 2's contents, rewritten as is
	for name, op := range map[string]func() error{
		"Read":       func() error { return fs.Read(ids[1], buf) },
		"EnsurePage": func() error { return fs.EnsurePage(ids[1]) },
		"Free+Alloc": func() error { return freeAlloc(fs, ids[2]) },
		"Write":      func() error { return fs.Write(ids[1], buf) },
	} {
		if n := testing.AllocsPerRun(50, func() {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %.0f allocs, want 0", name, n)
		}
	}

	// A torn free-list head fails the pop with ErrChecksum.
	if err := fs.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	if err := fs.writeRaw(ids[2], []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Alloc(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("alloc from a torn free list: %v, want ErrChecksum", err)
	}
}

// freeAlloc frees id and allocates it straight back off the free list.
func freeAlloc(fs *FileStore, id PageID) error {
	if err := fs.Free(id); err != nil {
		return err
	}
	got, err := fs.Alloc()
	if err == nil && got != id {
		err = fmt.Errorf("alloc returned %d, want the freed %d", got, id)
	}
	return err
}

// TestFileStoreSlotConcurrent runs reads, ensures, scans and alloc/free
// churn of extra pages on one store from several goroutines. Every
// operation stages through the one slot buffer; under -race this checks
// mu guards it, and each read must still return exactly its own page.
func TestFileStoreSlotConcurrent(t *testing.T) {
	fs, ids := newSlotStore(t, 6)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < 200; i++ {
				k := (g + i) % len(ids)
				var err error
				switch i % 4 {
				case 0, 1:
					if err = fs.Read(ids[k], buf); err == nil && !bytes.Equal(buf, bytes.Repeat([]byte{byte(k + 1)}, 64)) {
						err = fmt.Errorf("page %d read back %x", ids[k], buf[:4])
					}
				case 2:
					err = fs.EnsurePage(ids[k])
				case 3:
					if g == 0 {
						_, err = fs.LivePageIDs()
					} else {
						var id PageID
						if id, err = fs.Alloc(); err == nil {
							err = fs.Free(id)
						}
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
