package eio

import "sync"

// pageBufs pools the page-sized scratch buffers of reads whose page image
// is needed only inside one call: record chains and point blocks. Every
// buffer is released before the call that borrowed it returns, so no page
// image outlives the call and no caller ever sees a pooled buffer.
var pageBufs sync.Pool

// borrowPage returns an n-byte buffer from the pool (contents arbitrary).
// Hand it back with releasePage once the page image is no longer needed.
func borrowPage(n int) *[]byte {
	if b, ok := pageBufs.Get().(*[]byte); ok && cap(*b) >= n {
		*b = (*b)[:n]
		return b
	}
	b := make([]byte, n)
	return &b
}

// releasePage returns a buffer obtained from borrowPage to the pool.
func releasePage(b *[]byte) { pageBufs.Put(b) }
