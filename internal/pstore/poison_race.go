//go:build race

package pstore

// pagePoison enables use-after-release detection in race-enabled builds:
// ReleasePage overwrites a page before pooling it, so a shadow or staged
// page used after it was given back reads garbage at once.
const pagePoison = true

// poisonPage fills a released page with a recognizable pattern.
func poisonPage(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}
