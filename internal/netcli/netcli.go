// Package netcli gives every application CLI the same multi-process
// fabric switches. With no -transport flag a command runs exactly as
// before — all ranks in-process over simnet, which carries their bytes
// and models no network cost. With -transport tcp|unix the ranks become
// separate OS processes over the real-network fabric (internal/netfab),
// in one of two launch styles:
//
//	potrf -transport tcp -ranks 4            # self-spawning: the parent
//	                                         # re-execs itself once per
//	                                         # rank and multiplexes output
//	potrf -transport tcp -ranks 4 -rank 2 \  # manual: one process per
//	      -peers host:9000                   # rank, meeting at -peers
//
// In the self-spawning form the parent process never runs a rank: it
// reserves the coordinator address, re-execs os.Args with -rank/-peers
// prepended (so the child parses the same command line plus its
// identity), prefixes each child's output with its rank, and exits with
// a failing status if any child does.
package netcli

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/fabric"
	"repro/internal/netfab"
)

// Flags holds the registered fabric flag values.
type Flags struct {
	transport *string
	rank      *int
	peers     *string
}

// Register installs -transport, -rank and -peers on fs
// (the global flag set when nil).
func Register(fs *flag.FlagSet) *Flags {
	if fs == nil {
		fs = flag.CommandLine
	}
	return &Flags{
		transport: fs.String("transport", "", `multi-process fabric: "tcp" or "unix" (empty = in-process virtual fabric)`),
		rank:      fs.Int("rank", -1, "this process's rank for manual multi-process launch (default: self-spawn every rank)"),
		peers:     fs.String("peers", "", "coordinator address the ranks meet at (tcp host:port, unix socket path)"),
	}
}

// Enabled reports whether a real-network transport was requested.
func (f *Flags) Enabled() bool { return *f.transport != "" }

// Transport returns the requested transport name ("" when in-process).
func (f *Flags) Transport() string { return *f.transport }

// Launch resolves the fabric after flag.Parse. Three outcomes:
//
//   - No -transport: returns (nil, nil); the caller runs in-process.
//   - -transport with -rank: this process IS one rank — Bootstrap joins
//     the cluster and the endpoint is returned for ttg.Config.Fabric.
//   - -transport without -rank: self-spawning parent — spawns ranks
//     child processes, waits, and EXITS; Launch does not return.
func (f *Flags) Launch(ranks int) (fabric.Endpoint, error) {
	if !f.Enabled() {
		return nil, nil
	}
	if *f.rank >= 0 {
		coord := *f.peers
		if coord == "" {
			return nil, fmt.Errorf("netcli: -rank %d requires -peers", *f.rank)
		}
		return netfab.Bootstrap(netfab.Config{
			Transport: *f.transport,
			Rank:      *f.rank,
			Size:      ranks,
			Coord:     coord,
		})
	}
	os.Exit(f.spawn(ranks))
	panic("unreachable")
}

// coordAddr reserves a coordinator address for a self-spawned cluster.
func coordAddr(transport string) (string, error) {
	if transport == "unix" {
		p := filepath.Join(os.TempDir(), fmt.Sprintf("ttg-nf-coord-%d.sock", os.Getpid()))
		os.Remove(p)
		return p, nil
	}
	// Reserve a free loopback port by binding and releasing it; rank 0
	// rebinds it moments later.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// spawn runs the self-spawning parent: one child per rank, each a re-exec
// of this command line plus its rank identity, outputs multiplexed with a
// [rank N] prefix. Returns the exit status.
func (f *Flags) spawn(ranks int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "netcli: %v\n", err)
		return 1
	}
	coord, err := coordAddr(*f.transport)
	if err != nil {
		fmt.Fprintf(os.Stderr, "netcli: reserving coordinator address: %v\n", err)
		return 1
	}
	cmds := make([]*exec.Cmd, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		// Prepend the identity flags: flag parsing stops at the first
		// positional argument (ttg-bench subcommands), and in spawn mode
		// neither -rank nor -peers is on the original command line.
		args := append([]string{"-rank", strconv.Itoa(r), "-peers", coord},
			os.Args[1:]...)
		cmd := exec.Command(exe, args...)
		outp, _ := cmd.StdoutPipe()
		errp, _ := cmd.StderrPipe()
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "netcli: starting rank %d: %v\n", r, err)
			for _, c := range cmds[:r] {
				c.Process.Kill()
			}
			return 1
		}
		cmds[r] = cmd
		wg.Add(1)
		go func(r int, cmd *exec.Cmd, outp, errp io.Reader) {
			defer wg.Done()
			// Drain both pipes before Wait (which closes them).
			var cw sync.WaitGroup
			cw.Add(2)
			go prefixCopy(&cw, os.Stdout, outp, r)
			go prefixCopy(&cw, os.Stderr, errp, r)
			cw.Wait()
			errs[r] = cmd.Wait()
		}(r, cmd, outp, errp)
	}
	wg.Wait()
	status := 0
	for r, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "netcli: rank %d: %v\n", r, err)
			status = 1
		}
	}
	return status
}

// prefixCopy relays one child stream line by line under a rank prefix.
func prefixCopy(wg *sync.WaitGroup, dst io.Writer, src io.Reader, rank int) {
	defer wg.Done()
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		fmt.Fprintf(dst, "[rank %d] %s\n", rank, sc.Text())
	}
}
