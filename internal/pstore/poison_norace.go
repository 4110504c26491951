//go:build !race

package pstore

// pagePoison is off in regular builds: released pages keep their bytes and
// ReleasePage stays a pure pool put. See poison_race.go.
const pagePoison = false

//lotec:noalloc
func poisonPage([]byte) {}
