// Command psnode runs one live PeerStripe storage node through the
// public peerstripe package. The first node of a ring needs no seed;
// later nodes join through any member:
//
//	psnode -listen 127.0.0.1:7001 -capacity 1073741824
//	psnode -listen 127.0.0.1:7002 -capacity 1073741824 -seed 127.0.0.1:7001
//
// The node contributes the given storage to the ring and serves the
// wire protocol — pipelined multiplexed connections, with streaming
// transfers for blocks larger than a segment — until interrupted. A
// -name gives the node a stable ring
// identity across restarts instead of one derived from its listen
// address.
//
// With -detect the node runs the SWIM-style failure detector (probe,
// indirect probe, suspicion, death gossip; see docs/RING.md), and with
// -repair it heals files affected by committed deaths autonomously:
//
//	psnode -listen 127.0.0.1:7003 -seed 127.0.0.1:7001 -detect -repair xor
//
// An optional -admin address serves the node's observability surface
// over HTTP: /-/metrics (Prometheus text), /-/healthz, and
// /debug/pprof/. The endpoints are unauthenticated — bind them to
// loopback or a management network (see docs/OBSERVABILITY.md):
//
//	psnode -listen 127.0.0.1:7001 -admin 127.0.0.1:9001
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"peerstripe"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:0", "address to listen on")
		capacity = flag.Int64("capacity", 1<<30, "contributed storage in bytes")
		seed     = flag.String("seed", "", "address of any existing ring member (empty starts a new ring)")
		name     = flag.String("name", "", "stable node name; its hash becomes the ring ID (empty derives the ID from the listen address)")
		inflight = flag.Int("inflight", 0, "max concurrently served requests per connection (0 = default)")
		admin    = flag.String("admin", "", "serve /-/metrics, /-/healthz, and /debug/pprof/ on this HTTP address (empty disables; keep it off public networks)")
		statKick = flag.Duration("statusEvery", 30*time.Second, "status print interval (0 disables)")

		detect    = flag.Bool("detect", false, "run the SWIM-style failure detector")
		probeIvl  = flag.Duration("probe-interval", 0, "gap between failure-detector probe rounds (0 = default 1s; implies -detect)")
		probeTmo  = flag.Duration("probe-timeout", 0, "timeout of one direct or indirect probe (0 = default 500ms; implies -detect)")
		suspicion = flag.Duration("suspicion", 0, "refutation window before a suspect's death commits (0 = default 4s; implies -detect)")
		indirect  = flag.Int("indirect-probes", 0, "peers asked to probe an unreachable target before suspicion (0 = default 3; implies -detect)")
		repair    = flag.String("repair", "", "run the autonomous repair daemon with this erasure code (null, xor, online, rs)")
		repRate   = flag.Int64("repair-rate", 0, "repair daemon byte/s budget (0 = default 32 MiB/s; requires -repair)")
	)
	flag.Parse()

	var opts []peerstripe.NodeOption
	if *detect {
		opts = append(opts, peerstripe.WithDetector())
	}
	if *probeIvl > 0 {
		opts = append(opts, peerstripe.WithProbeInterval(*probeIvl))
	}
	if *probeTmo > 0 {
		opts = append(opts, peerstripe.WithProbeTimeout(*probeTmo))
	}
	if *suspicion > 0 {
		opts = append(opts, peerstripe.WithSuspicionTimeout(*suspicion))
	}
	if *indirect > 0 {
		opts = append(opts, peerstripe.WithIndirectProbes(*indirect))
	}
	if *repair != "" {
		opts = append(opts, peerstripe.WithRepair(*repair))
	}
	if *repRate > 0 {
		opts = append(opts, peerstripe.WithRepairRate(*repRate))
	}

	n, err := peerstripe.ListenAndServe(*listen, *capacity, *seed, *name, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer n.Close()
	n.SetMaxInflight(*inflight)
	fmt.Printf("psnode %s listening on %s (capacity %d bytes, ring size %d)\n",
		n.ID(), n.Addr(), *capacity, n.RingSize())

	if *admin != "" {
		aln, err := net.Listen("tcp", *admin)
		if err != nil {
			log.Fatalf("admin listen %s: %v", *admin, err)
		}
		defer aln.Close()
		go http.Serve(aln, n.AdminHandler()) //nolint:errcheck
		fmt.Printf("admin endpoints on http://%s/-/metrics (metrics, healthz, pprof)\n", aln.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	if *statKick > 0 {
		ticker := time.NewTicker(*statKick)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				alive, suspect, dead := 0, 0, 0
				for _, m := range n.Members() {
					switch m.State {
					case "suspect":
						suspect++
					case "dead":
						dead++
					default:
						alive++
					}
				}
				fmt.Printf("status: ring=%d blocks=%d used=%d members=%d/%d/%d (alive/suspect/dead) repairQueue=%d\n",
					n.RingSize(), n.Blocks(), n.Used(), alive, suspect, dead, n.RepairQueue())
			case <-stop:
				fmt.Println("shutting down")
				return
			}
		}
	}
	<-stop
	fmt.Println("shutting down")
}
