//go:build linux

package eio

import (
	"os"
	"runtime/debug"
	"syscall"
)

// fileMap is a read-only MAP_SHARED mapping of a FileStore's file that
// page reads copy from instead of issuing one pread each. Writes stay on
// pwrite: Linux's unified page cache makes them visible through the
// mapping at once, so the mapping is never stale, only short. The memory
// is the OS page cache pread already reads from; mapped pages count in
// the process's RSS but are clean and reclaimable.
//
// The mapping reserves about twice the file's size. A read past the length
// known to be backed by the file refreshes it with one fstat, and the file
// is remapped only when it outgrows the reservation, so an appending store
// remaps O(log size) times. The owning FileStore's mu guards every field.
type fileMap struct {
	data   []byte // the reservation; bytes past size may lie beyond the file's end
	size   int64  // bytes of the file known to exist
	failed bool   // mmap failed once: every read falls back to pread
}

// readAt copies len(dst) bytes at offset off of f from the mapping,
// mapping or growing it first if needed. It reports false when the
// mapping cannot serve the read — mmap failed, the read ends past the
// file's end, or the copy faulted (the file shrank underneath, or a device
// error) — and then the caller reads with pread, which returns the same
// errors as a store without a mapping. dst is then partly written or not
// at all.
func (m *fileMap) readAt(f *os.File, dst []byte, off int64) bool {
	end := off + int64(len(dst))
	if m.failed {
		return false
	}
	if end > m.size {
		var st syscall.Stat_t
		if err := syscall.Fstat(int(f.Fd()), &st); err != nil || end > st.Size {
			return false
		}
		m.size = st.Size
	}
	if end > int64(len(m.data)) && !m.remap(f) {
		return false
	}
	return m.copyAt(dst, off)
}

// remap replaces the mapping with one reserving twice the known size.
func (m *fileMap) remap(f *os.File) bool {
	m.close()
	ps := int64(os.Getpagesize())
	n := (2*m.size + ps - 1) / ps * ps
	if int64(int(n)) != n {
		m.failed = true
		return false
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		m.failed = true
		return false
	}
	m.data = data
	return true
}

// copyAt copies from the mapping, turning a fault (SIGBUS on a page past
// a file that shrank underneath, or a device error) into false instead of
// a crash. The known size is reset so the next read re-checks the file.
func (m *fileMap) copyAt(dst []byte, off int64) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			m.size = 0
			ok = false
		}
	}()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	copy(dst, m.data[off:])
	return true
}

// close unmaps the file. The next read past size maps it again.
func (m *fileMap) close() {
	if m.data != nil {
		syscall.Munmap(m.data)
		m.data = nil
	}
}
