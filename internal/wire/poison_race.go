//go:build race

package wire

// framePoison enables use-after-release detection in race-enabled builds:
// ReleaseFrame overwrites the buffer before pooling it, so a view that
// outlives its frame observes garbage immediately rather than stale bytes
// that happen to still look right.
const framePoison = true

// poisonFrame fills a released buffer with a recognizable pattern.
func poisonFrame(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}
