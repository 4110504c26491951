package pstore

import "sync"

// The page pool: every page-sized buffer the data path moves — a shadow
// page, a page staged to be served or pushed, a fetched page copied out of
// its frame — is taken with GetPage and given back with ReleasePage, so a
// page crossing a site costs no allocation once the pool is warm.
// DESIGN.md §9 "Data plane" says who takes each buffer and who gives it
// back.
//
// Pool buffers have exactly DefaultPageSize capacity. GetPage slices one to
// the size asked for, and allocates a request larger than a page.
// ReleasePage drops any buffer of another capacity, so a short buffer (a
// delta payload, a test's slice) never displaces a page and a large one
// never pins memory. ReleasePage must get a buffer whose every alias is
// dead: it pools buf[:cap(buf)].
//
// In race-enabled builds every released page is poisoned (each byte set to
// 0xDB, as wire does for frames), so a shadow or staged page read after it
// was given back reads garbage at once instead of recycled bytes.

// pagePool holds page buffers in recycled *[]byte boxes.
var pagePool = sync.Pool{
	New: func() any {
		buf := make([]byte, DefaultPageSize)
		return &buf
	},
}

// boxPool recycles the boxes that carry pages through pagePool: putting
// &local into a sync.Pool heap-allocates a slice header per release, so
// GetPage frees a box and ReleasePage reuses it (wire.headerPool does the
// same for frames).
var boxPool = sync.Pool{
	New: func() any { return new([]byte) },
}

// GetPage returns a buffer of exactly size bytes, from the pool when size
// is at most a page. Its contents are unspecified.
func GetPage(size int) []byte {
	if size > DefaultPageSize {
		return make([]byte, size) // larger than a pool page; never pooled
	}
	bp := pagePool.Get().(*[]byte)
	buf := *bp
	*bp = nil
	boxPool.Put(bp)
	return buf[:size]
}

// ReleasePage gives a buffer back to the pool. A buffer whose capacity is not
// a page is dropped. Safe to call with buffers that did not come from
// GetPage, and with nil.
func ReleasePage(buf []byte) {
	if cap(buf) != DefaultPageSize {
		return
	}
	b := buf[:cap(buf)]
	if pagePoison {
		poisonPage(b)
	}
	bp := boxPool.Get().(*[]byte)
	*bp = b
	pagePool.Put(bp)
}
