// Command psput is the client CLI for a live PeerStripe ring, built on
// the public peerstripe package:
//
//	psput -seed 127.0.0.1:7001 put local.dat remote-name
//	psput -seed 127.0.0.1:7001 get remote-name out.dat
//	psput -seed 127.0.0.1:7001 range remote-name 1048576 4096
//	psput -seed 127.0.0.1:7001 repair remote-name
//	psput -seed 127.0.0.1:7001 rm remote-name
//	psput -seed 127.0.0.1:7001 ls
//
// Files are striped into capacity-probed chunks and protected with the
// selected erasure code ((2,3) XOR by default). put streams from disk
// chunk by chunk — files larger than memory work — and blocks larger
// than a wire frame move as bounded streaming segments. Reads are
// degraded-tolerant (hedged fetches decode from any sufficient block
// subset even with nodes down).
//
// Exit codes let scripts distinguish failures: 0 success, 1 operation
// error, 2 usage error, 3 name not found, 4 ring unreachable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"peerstripe"
)

// Exit codes.
const (
	exitOK          = 0
	exitErr         = 1
	exitUsage       = 2
	exitNotFound    = 3
	exitUnavailable = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: it parses args, performs
// one subcommand, and returns the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psput", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.String("seed", "127.0.0.1:7001", "address of any ring member")
		code     = fs.String("code", "xor", "erasure code: null, xor, online, rs")
		hedgeMS  = fs.Duration("hedge-delay", 0, "per-source stall cutoff before a read races a replacement stream (0 = default)")
		chunkCap = fs.Int64("chunkcap", 0, "cap on chunk size in bytes (0 = default 16 MiB)")
		segment  = fs.Int("segment", 0, "wire streaming segment size in bytes (0 = default 4 MiB)")
		timeout  = fs.Duration("timeout", 0, "per-RPC deadline (0 = default 10s)")
		deadline = fs.Duration("deadline", 0, "overall operation deadline (0 = none)")
	)
	if err := fs.Parse(argv); err != nil {
		return exitUsage
	}
	args := fs.Args()
	if len(args) < 1 {
		fmt.Fprintln(stderr, "usage: psput [flags] put|get|range|repair|rm|ls ...")
		fs.PrintDefaults()
		return exitUsage
	}

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	opts := []peerstripe.Option{peerstripe.WithCode(*code)}
	if *segment > 0 {
		opts = append(opts, peerstripe.WithSegment(*segment))
	}
	if *hedgeMS != 0 {
		opts = append(opts, peerstripe.WithHedgeDelay(*hedgeMS))
	}
	if *chunkCap > 0 {
		opts = append(opts, peerstripe.WithChunkCap(*chunkCap))
	}
	if *timeout > 0 {
		opts = append(opts, peerstripe.WithTimeout(*timeout))
	}

	op := args[0]
	fail := func(name string, err error) int {
		// Every failure names the op, the object, and the deadline in
		// force, so a script's log line is self-explanatory.
		fmt.Fprintf(stderr, "psput %s %q (deadline %s): %v\n", op, name, deadlineString(*deadline), err)
		switch {
		case errors.Is(err, peerstripe.ErrNotFound):
			return exitNotFound
		case errors.Is(err, peerstripe.ErrRingUnavailable):
			return exitUnavailable
		default:
			return exitErr
		}
	}

	client, err := peerstripe.Dial(ctx, *seed, opts...)
	if err != nil {
		return fail(*seed, err)
	}
	defer client.Close()

	switch op {
	case "put":
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: put <localFile> <remoteName>")
			return exitUsage
		}
		local, remote := args[1], args[2]
		f, err := os.Open(local)
		if err != nil {
			return fail(local, err)
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return fail(local, err)
		}
		start := time.Now()
		info, err := client.Store(ctx, remote, f, st.Size())
		if err != nil {
			return fail(remote, err)
		}
		el := time.Since(start)
		fmt.Fprintf(stdout, "stored %s: %d bytes in %d chunks (%.1f MB/s)\n",
			remote, info.Size, info.Chunks, float64(info.Size)/1e6/el.Seconds())
	case "get":
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: get <remoteName> <localFile>")
			return exitUsage
		}
		remote, local := args[1], args[2]
		src, err := client.Open(ctx, remote)
		if err != nil {
			return fail(remote, err)
		}
		defer src.Close()
		dst, err := os.Create(local)
		if err != nil {
			return fail(local, err)
		}
		start := time.Now()
		n, err := io.Copy(dst, src)
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(remote, err)
		}
		fmt.Fprintf(stdout, "fetched %s: %d bytes (%.1f MB/s)\n",
			remote, n, float64(n)/1e6/time.Since(start).Seconds())
	case "range":
		if len(args) != 4 {
			fmt.Fprintln(stderr, "usage: range <remoteName> <offset> <length>")
			return exitUsage
		}
		off, err1 := strconv.ParseInt(args[2], 10, 64)
		n, err2 := strconv.ParseInt(args[3], 10, 64)
		if err1 != nil || err2 != nil || off < 0 || n < 0 {
			fmt.Fprintln(stderr, "offset/length must be non-negative integers")
			return exitUsage
		}
		f, err := client.Open(ctx, args[1])
		if err != nil {
			return fail(args[1], err)
		}
		defer f.Close()
		// Validate against the file before allocating: a bogus length
		// must not size a buffer, and a range outside the file is an
		// error, not silence.
		if off >= f.Size() {
			return fail(args[1], fmt.Errorf("range start %d beyond file of %d bytes", off, f.Size()))
		}
		if max := f.Size() - off; n > max {
			n = max
		}
		buf := make([]byte, n)
		read, err := f.ReadAt(buf, off)
		if err != nil && err != io.EOF {
			return fail(args[1], err)
		}
		stdout.Write(buf[:read]) //nolint:errcheck
	case "repair":
		if len(args) != 2 {
			fmt.Fprintln(stderr, "usage: repair <remoteName>")
			return exitUsage
		}
		st, err := client.Repair(ctx, args[1])
		if err != nil {
			return fail(args[1], err)
		}
		fmt.Fprintf(stdout, "repaired %s: %d chunks scanned, %d blocks missing, %d re-created, %d CAT replicas restored, %d chunks lost\n",
			args[1], st.ChunksScanned, st.BlocksMissing, st.BlocksRecreated, st.CATReplicasRecreated, st.ChunksLost)
	case "rm":
		if len(args) != 2 {
			fmt.Fprintln(stderr, "usage: rm <remoteName>")
			return exitUsage
		}
		// Like repair, rm is a maintenance op: shed unreachable members
		// first so deletes target the live owners.
		if _, err := client.Prune(ctx); err != nil {
			return fail(args[1], err)
		}
		if err := client.Delete(ctx, args[1]); err != nil {
			return fail(args[1], err)
		}
		fmt.Fprintf(stdout, "removed %s\n", args[1])
	case "ls":
		for _, addr := range client.Nodes() {
			st, err := client.StatNode(ctx, addr)
			if err != nil {
				fmt.Fprintf(stdout, "%-21s  unreachable: %v\n", addr, err)
				continue
			}
			fmt.Fprintf(stdout, "%-21s  used %d / %d bytes, %d blocks\n", st.Addr, st.Used, st.Capacity, st.Blocks)
		}
	default:
		fmt.Fprintf(stderr, "unknown subcommand %q\n", op)
		return exitUsage
	}
	return exitOK
}

func deadlineString(d time.Duration) string {
	if d <= 0 {
		return "none"
	}
	return d.String()
}
