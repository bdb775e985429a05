package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestLiveMuxNoCrossedResponses drives hundreds of concurrent calls over
// one pooled connection to an echo server that answers after a random
// delay, so responses return out of order. Random calls are cancelled
// or given timeouts shorter than the server's delay — their responses
// arrive late, after the caller has gone — and every server connection
// is killed once mid-run. Call state is recycled from call to call, so
// a late response delivered into recycled state would hand one caller
// another's payload: every success must carry its own payload, every
// failure must be a cancel, a timeout or the lost connection, and no
// goroutine may outlive the pool and the server.
func TestLiveMuxNoCrossedResponses(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var (
		serving  sync.WaitGroup
		connMu   sync.Mutex
		accepted []net.Conn
	)
	serving.Add(1)
	go func() {
		defer serving.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			connMu.Lock()
			accepted = append(accepted, conn)
			connMu.Unlock()
			serving.Add(1)
			go func() {
				defer serving.Done()
				defer conn.Close()
				Serve(conn, func(req *Request) *Response {
					time.Sleep(time.Duration(rand.IntN(1000)) * time.Microsecond)
					return &Response{OK: true, Data: append([]byte("echo:"), req.Data...)}
				}, 0)
			}()
		}
	}()
	killAll := func() {
		connMu.Lock()
		defer connMu.Unlock()
		for _, c := range accepted {
			c.Close()
		}
	}

	p := NewPool()
	p.Timeout = 5 * time.Second
	const (
		callers = 300
		each    = 20
	)
	var (
		done      atomic.Int64
		killOnce  sync.Once
		wg        sync.WaitGroup
		successes atomic.Int64
		failures  atomic.Int64
		crossed   atomic.Int64
		unknown   atomic.Int64
		firstBad  atomic.Value
	)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				payload := fmt.Appendf(nil, "caller %d call %d %s", g, i, strings.Repeat("x", rand.IntN(512)))
				ctx, cancel := context.WithCancel(context.Background())
				timeout := p.Timeout
				var canceller *time.Timer
				switch rand.IntN(8) {
				case 0: // cancelled while the server is still on it
					canceller = time.AfterFunc(time.Duration(rand.IntN(1000))*time.Microsecond, cancel)
				case 1: // a deadline shorter than most answers take
					timeout = time.Duration(100+rand.IntN(1000)) * time.Microsecond
				}
				resp, err := p.CallCtx(ctx, addr, &Request{Op: OpFetch, Name: "blk", Data: payload}, timeout)
				if canceller != nil {
					canceller.Stop()
				}
				cancel()
				if n := done.Add(1); n == callers*each/2 {
					killOnce.Do(killAll)
				}
				var netErr net.Error
				switch {
				case err == nil:
					successes.Add(1)
					if want := append([]byte("echo:"), payload...); !bytes.Equal(resp.Data, want) {
						crossed.Add(1)
						firstBad.CompareAndSwap(nil, fmt.Sprintf("got %.40q, want %.40q", resp.Data, want))
					}
					resp.Release()
				case errors.Is(err, context.Canceled),
					// The call's own deadline: waiting for the answer, or
					// redialing (dial, handshake) after the kill.
					strings.Contains(err.Error(), "timeout after"),
					errors.As(err, &netErr) && netErr.Timeout(),
					// The connection died under the call: the kill, or a
					// short deadline that expired mid-write (a half-sent
					// frame fails the connection), or a redial the kill
					// cut short.
					strings.Contains(err.Error(), "connection lost"),
					strings.Contains(err.Error(), "send to"),
					errors.Is(err, io.EOF), errors.Is(err, syscall.ECONNRESET):
					failures.Add(1)
				default:
					unknown.Add(1)
					firstBad.CompareAndSwap(nil, err.Error())
				}
			}
		}()
	}
	wg.Wait()
	p.Close()
	ln.Close()
	serving.Wait()

	t.Logf("%d calls: %d succeeded, %d cancelled, timed out or cut off", callers*each, successes.Load(), failures.Load())
	if n := crossed.Load(); n > 0 {
		t.Fatalf("%d calls got another call's response, e.g. %v", n, firstBad.Load())
	}
	if n := unknown.Load(); n > 0 {
		t.Fatalf("%d calls failed other than by cancel, timeout or lost connection, e.g. %v", n, firstBad.Load())
	}
	if successes.Load() == 0 || failures.Load() == 0 {
		t.Fatalf("the run exercised only one outcome: %d successes, %d failures", successes.Load(), failures.Load())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive the run, %d before it:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
