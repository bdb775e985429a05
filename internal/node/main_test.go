package node

import (
	"fmt"
	"os"
	"testing"

	"peerstripe/internal/wire"
)

// TestMain fails a passing run in which a receive frame was collected
// without Release. Frames are counted under the race detector only, as
// `make race` and `make live-path` run the suites (see
// wire.LeakedFrames).
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if n := wire.LeakedFrames(); n > 0 {
			fmt.Fprintf(os.Stderr, "FAIL: %d receive frames were collected without Release\n", n)
			code = 1
		}
	}
	os.Exit(code)
}
