package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/netfab"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/ttg"
)

// rep is what one repetition of a workload measured.
type rep struct {
	setupS float64 // input generation, mesh bootstrap, graph build, MakeExecutable
	wallS  float64 // first Seed to the last rank's Fence return
	cpuS   float64 // process CPU time (user+system) over the wallS window
	allocB uint64  // TotalAlloc delta over set-up, run and shutdown
	stats  trace.Snapshot
	report *obs.Report // traced repetitions only
	err    error
	// timedOut marks a wedged repetition, whose goroutines are still
	// running and would disturb any measurement made after it.
	timedOut bool
}

// barrier releases its n waiters together; the last to arrive runs then
// first, so a timestamp taken there is taken once, with every rank ready.
type barrier struct {
	left atomic.Int32
	then func()
	open chan struct{}
}

func newBarrier(n int, then func()) *barrier {
	b := &barrier{then: then, open: make(chan struct{})}
	b.left.Store(int32(n))
	return b
}

func (b *barrier) wait() {
	if b.left.Add(-1) == 0 {
		b.then()
		close(b.open)
	}
	<-b.open
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// launch starts w's runtime — one in-process cluster, or one runtime per
// endpoint of a loopback TCP mesh — runs main once per rank, and returns
// when every rank has returned and the runtime has shut down.
func launch(w *workload, session *obs.Session, main func(pc *ttg.Process)) error {
	cfg := ttg.Config{Ranks: w.ranks, WorkersPerRank: w.workers, Backend: w.backend, Obs: session}
	if !w.tcp {
		ttg.Run(cfg, main)
		return nil
	}
	eps, err := netfab.NewLocalMesh(w.ranks, netfab.Config{Transport: "tcp"})
	if err != nil {
		return fmt.Errorf("bootstrap %d-rank TCP mesh: %w", w.ranks, err)
	}
	var wg sync.WaitGroup
	for _, ep := range eps {
		wg.Add(1)
		go func(ep *netfab.Endpoint) {
			defer wg.Done()
			c := cfg
			c.Fabric = ep // Run closes the endpoint after main returns
			ttg.Run(c, main)
		}(ep)
	}
	wg.Wait()
	return nil
}

// setUpOnly performs the set-up of one repetition of w and nothing more:
// instance, mesh, runtime, graph, MakeExecutable, then a fence over an
// empty graph. A repetition's own set-up gives one setup_s sample in
// 0.7 s; a set-up lasts 0.1-0.8 ms and varies by a factor of two from one
// to the next, so each repetition adds dry ones to steady the median.
func setUpOnly(w *workload, seed int64) (setupS float64, err error) {
	t0 := time.Now()
	inst := w.newInstance(seed)
	var tReady time.Time
	ready := newBarrier(w.ranks, func() { tReady = time.Now() })
	err = launch(w, nil, func(pc *ttg.Process) {
		g := pc.NewGraph()
		inst.build(g)
		g.MakeExecutable()
		ready.wait()
		g.Fence()
	})
	return tReady.Sub(t0).Seconds(), err
}

// runRep runs one repetition of w to its fence and checks the result; a
// traced repetition records into a fresh obs.Session. It starts from a
// collected heap, so that what the previous repetition and its check left
// behind does not decide when this one's first GC cycle falls.
func runRep(w *workload, seed int64, repIdx int, traced bool) (r rep) {
	var session *obs.Session
	if traced {
		session = obs.NewSession(obs.Config{Capacity: w.traceCap})
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()

	inst := w.newInstance(seed)
	var tSeed, tFence time.Time
	var cpu0, cpu1 time.Duration
	ready := newBarrier(w.ranks, func() { cpu0, tSeed = cpuTime(), time.Now() })
	fenced := newBarrier(w.ranks, func() { tFence, cpu1 = time.Now(), cpuTime() })
	var mu sync.Mutex
	var stats trace.Snapshot
	r.err = launch(w, session, func(pc *ttg.Process) {
		g := pc.NewGraph()
		seedFn := inst.build(g)
		g.MakeExecutable()
		ready.wait()
		seedFn()
		g.Fence()
		fenced.wait()
		mu.Lock()
		stats = stats.Add(pc.Stats())
		mu.Unlock()
	})
	if r.err != nil {
		return r
	}
	runtime.ReadMemStats(&ms1)

	r.setupS = tSeed.Sub(t0).Seconds()
	r.wallS = tFence.Sub(tSeed).Seconds()
	r.cpuS = (cpu1 - cpu0).Seconds()
	r.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	r.stats = stats
	if session != nil {
		r.report = session.Report()
	}
	if w.tasks != 0 && stats.TasksExecuted != w.tasks {
		r.err = fmt.Errorf("ran %d tasks, nominal count is %d", stats.TasksExecuted, w.tasks)
		return r
	}
	r.err = inst.check(rand.New(rand.NewSource(seed<<16 + int64(repIdx))))
	return r
}

// runRepTimed is runRep with the wedge guard: a repetition that has not
// returned after 10x the workload's recorded median is abandoned and
// counted as failed. A panic in the harness's own code (instance set-up,
// the result check) fails the repetition too; a panic inside a task body
// runs on a pool worker and ends the process, as it does in the CLIs.
func runRepTimed(w *workload, seed int64, repIdx int, traced bool) rep {
	done := make(chan rep, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- rep{err: fmt.Errorf("panic: %v", p)}
			}
		}()
		done <- runRep(w, seed, repIdx, traced)
	}()
	limit := time.Duration(10 * w.expectS * float64(time.Second))
	if traced {
		limit *= 3 // event recording and the post-run analysis are not free
	}
	select {
	case r := <-done:
		return r
	case <-time.After(limit):
		return rep{err: fmt.Errorf("timed out after %v (10x the recorded median)", limit), timedOut: true}
	}
}
