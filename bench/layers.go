package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/apps/mra"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/netfab"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/serde"
	"repro/internal/tile"
	"repro/internal/trace"
)

// Layer probes: each times calls into one layer's public functions from
// here, outside the program, so the numbers exist before any span is
// added inside it. They do not depend on the workload.

// nsPerCall times fn in windows of about 30 ms and returns the median
// window's ns per call; the median of five sheds a GC cycle or a
// scheduler hiccup landing in one window.
func nsPerCall(fn func()) float64 {
	const windows, window = 5, 30 * time.Millisecond
	fn() // warm pools and caches
	per := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		calls, start := 0, time.Now()
		var el time.Duration
		for el < window {
			fn()
			calls++
			el = time.Since(start)
		}
		per = append(per, float64(el.Nanoseconds())/float64(calls))
	}
	return median(per)
}

func filled(rows, cols int) *tile.Tile {
	t := tile.NewPooled(rows, cols)
	for i := range t.Data {
		t.Data[i] = 0.5 + float64(i%7)/8
	}
	return t
}

func probeLapack(m metrics) {
	for _, nb := range []int{16, 128} {
		c, a, b := filled(nb, nb), filled(nb, nb), filled(nb, nb)
		ns := nsPerCall(func() { lapack.GemmNT(c, a, b) })
		m.set(fmt.Sprintf("lapack.gemm_gflops_nb%d", nb), lapack.GemmFlops(nb, nb, nb)/ns, "GF/s")
	}
	// Potrf destroys its input, so each call factors a fresh copy of a
	// diagonally dominant tile; the 128 KiB copy is under 2% of the call.
	const nb = 128
	spd, work := filled(nb, nb), tile.NewPooled(nb, nb)
	for i := 0; i < nb; i++ {
		spd.Set(i, i, 2*nb)
	}
	ns := nsPerCall(func() {
		copy(work.Data, spd.Data)
		if err := lapack.Potrf(work); err != nil {
			panic(err)
		}
	})
	m.set("lapack.potrf_gflops_nb128", lapack.PotrfFlops(nb)/ns, "GF/s")
	c, a, b := filled(32, 32), filled(32, 32), filled(32, 32)
	ns = nsPerCall(func() { lapack.FWKernelD(c, a, b) })
	m.set("lapack.fwd_gflops_nb32", lapack.MinPlusFlops(32, 32, 32)/ns, "GF/s")
}

// inlineExec is the synchronous executor of BenchmarkShardedMatch: Submit
// runs the task inline, so a Seed costs the match path alone (shard lock,
// shell fill, dispatch) with no worker handoff.
type inlineExec struct{ tr trace.Collector }

func (e *inlineExec) Rank() int           { return 0 }
func (e *inlineExec) Size() int           { return 1 }
func (e *inlineExec) Submit(t *core.Task) { t.Execute(0) }
func (e *inlineExec) SubmitBatch(ts []*core.Task) {
	for _, t := range ts {
		t.Execute(0)
	}
}
func (e *inlineExec) Deliver(int, core.Delivery)      {}
func (e *inlineExec) Broadcast(map[int]core.Delivery) {}
func (e *inlineExec) TracksData() bool                { return true }
func (e *inlineExec) Obs() obs.Recorder               { return nil }
func (e *inlineExec) SupportsSplitMD() bool           { return false }
func (e *inlineExec) Fence()                          {}
func (e *inlineExec) Activate()                       {}
func (e *inlineExec) Deactivate()                     {}
func (e *inlineExec) Tracer() *trace.Collector        { return &e.tr }

func probeCore(m metrics) {
	g := core.NewGraph(&inlineExec{})
	e0, e1 := core.NewEdge("m0"), core.NewEdge("m1")
	g.AddTT(core.TTSpec{
		Name:   "join",
		Inputs: []core.InputSpec{{Edge: e0}, {Edge: e1}},
		Body:   func(*core.TaskContext) {},
		Keymap: func(any) int { return 0 },
	})
	g.Seal()
	k := 0
	ns := nsPerCall(func() {
		key := serde.Int2{k, 0}
		k++
		g.Seed(e0, key, 1)
		g.Seed(e1, key, 1)
	})
	m.set("core.match_ns_per_msg", ns/2, "ns")
}

// probeSched measures submit-to-run cost per empty item through a
// two-worker banded-stealing pool (the PaRSEC preset's policy): batches
// of 256 submitted from outside, timed until the last one has run.
func probeSched(m metrics) {
	const batch = 256
	var ran atomic.Int64
	done := make(chan struct{}, 1) // one token per batch
	p := sched.NewPool(2, sched.PolicyStealPrio, func(int, sched.Item) {
		if ran.Add(1)%batch == 0 {
			done <- struct{}{}
		}
	})
	p.Start()
	defer p.Stop()
	items := make([]sched.Item, batch)
	ns := nsPerCall(func() {
		p.SubmitBatch(items)
		<-done
	})
	m.set("sched.dispatch_ns_per_task", ns/batch, "ns")
}

func probeSerde(m metrics) {
	buf := serde.NewBuffer(256 << 10)
	for _, c := range []struct {
		nb   int
		name string
	}{{32, "8k"}, {128, "128k"}} {
		t := filled(c.nb, c.nb)
		mb := float64(t.PayloadSize()) / 1e6
		ns := nsPerCall(func() {
			buf.Reset()
			serde.EncodeAny(buf, t)
		})
		m.set("serde.tile_encode_mb_s_"+c.name, mb/(ns/1e9), "MB/s")
		if c.nb != 128 {
			continue
		}
		wire := append([]byte(nil), buf.Bytes()...)
		ns = nsPerCall(func() {
			serde.DecodeAny(serde.FromBytes(wire)).(*tile.Tile).Release()
		})
		m.set("serde.tile_decode_mb_s_"+c.name, mb/(ns/1e9), "MB/s")
	}
	// A compress-stage message of mra_stream: k=8, d=3, all 8 children.
	msg := &mra.TreeMsg{Children: make([][]float64, 8), LeafMask: 0xFF}
	for i := range msg.Children {
		msg.Children[i] = make([]float64, 512)
	}
	ns := nsPerCall(func() {
		buf.Reset()
		serde.EncodeAny(buf, msg)
	})
	m.set("serde.treemsg_encode_ns", ns, "ns")
}

func probeNetfab(m metrics) error {
	eps, err := netfab.NewLocalMesh(2, netfab.Config{Transport: "tcp"})
	if err != nil {
		return fmt.Errorf("bootstrap 2-rank TCP mesh: %w", err)
	}
	defer netfab.CloseAll(eps)
	payload := []byte("x")
	ns := nsPerCall(func() {
		eps[0].Send(1, 1, payload)
		eps[1].Recv()
		eps[1].Send(0, 1, payload)
		eps[0].Recv()
	})
	m.set("netfab.pingpong_us", ns/1e3, "us")
	const elems = 128 * 128 // one 128 KiB tile payload
	var recvErr error
	ns = nsPerCall(func() {
		eps[0].SendSegs(1, 2, nil, []serde.Segment{{F64: pool.Float64s(elems)}})
		pkt, ok := eps[1].Recv()
		if !ok || len(pkt.Segs) != 1 {
			recvErr = fmt.Errorf("netfab bandwidth probe: segment did not arrive")
			return
		}
		pool.PutFloat64s(pkt.Segs[0].F64)
	})
	m.set("netfab.bw_mb_s_128k", 8*elems/1e6/(ns/1e9), "MB/s")
	return recvErr
}

func probePool(m metrics) {
	ns := nsPerCall(func() { pool.PutFloat64s(pool.Float64s(128 * 128)) })
	m.set("pool.get_put_ns_128k", ns, "ns")
}

// probeLayers runs every layer probe, one after the other (about 2.5 s).
func probeLayers(m metrics) error {
	probeLapack(m)
	probeCore(m)
	probeSched(m)
	probeSerde(m)
	probePool(m)
	return probeNetfab(m)
}
