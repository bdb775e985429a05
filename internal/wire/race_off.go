//go:build !race

package wire

const raceEnabled = false

// Without the race detector no frame is watched: leakWatch is empty
// and the hooks are no-ops, so a frame costs nothing for it.
type leakWatch struct{}

func (*frameBuf) watch()   {}
func (*frameBuf) unwatch() {}
