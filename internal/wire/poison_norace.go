//go:build !race

package wire

// framePoison is off in regular builds: released frames keep their bytes
// and ReleaseFrame stays a pure pool put. See poison_race.go.
const framePoison = false

func poisonFrame([]byte) {}
