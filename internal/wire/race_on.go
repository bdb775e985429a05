//go:build race

package wire

import "runtime"

// raceEnabled reports whether the race detector is compiled in. Under
// it, a released frame is poisoned before it goes back to the pool
// (see releaseFrame), a frame a message holds is watched for a leak
// (see LeakedFrames), and allocation and heap budgets in the tests
// skip.
const raceEnabled = true

// leakWatch is the cleanup that counts a frame as leaked should it be
// collected while a message holds it.
type leakWatch struct{ cleanup runtime.Cleanup }

// watch arms f's leak count as a message takes it.
func (f *frameBuf) watch() {
	f.leak.cleanup = runtime.AddCleanup(f, func(struct{}) { leakedFrames.Add(1) }, struct{}{})
}

// unwatch disarms it as the message releases f.
func (f *frameBuf) unwatch() {
	f.leak.cleanup.Stop()
	f.leak = leakWatch{}
}
