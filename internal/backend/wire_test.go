package backend_test

import (
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/obs/live"
	"repro/internal/pool"
	"repro/internal/serde"
	"repro/internal/tile"
	"repro/internal/trace"
)

// runTileSend ships one rows x cols tile from rank 0 to rank 1 with the
// given send mode over cfg and returns the received tile's data plus both
// ranks' trace snapshots. The payload is pool-backed (tile.NewPooled) so
// the zero-copy path exercises real pooled memory.
func runTileSend(t *testing.T, cfg backend.Options, rows, cols int, mode core.SendMode) (got []float64, send, recv trace.Snapshot) {
	t.Helper()
	var mu sync.Mutex
	rt := backend.New(2, cfg)
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		out := core.NewEdge("out")
		g.AddTT(core.TTSpec{
			Name:    "src",
			Inputs:  []core.InputSpec{{Edge: in}},
			Outputs: []core.OutputSpec{{Edge: out}},
			Keymap:  func(any) int { return 0 },
			Body: func(ctx *core.TaskContext) {
				tl := tile.NewPooled(rows, cols)
				for i := range tl.Data {
					tl.Data[i] = float64(i) * 0.5
				}
				ctx.SendMode(0, serde.Int1{1}, tl, mode)
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "dst",
			Inputs: []core.InputSpec{{Edge: out}},
			Keymap: func(any) int { return 1 },
			Body: func(ctx *core.TaskContext) {
				tl := ctx.Input(0).(*tile.Tile)
				mu.Lock()
				got = append([]float64(nil), tl.Data...)
				mu.Unlock()
			},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			g.Seed(in, serde.Int1{0}, 0.0)
		}
		g.Fence()
		mu.Lock()
		if p.Rank() == 0 {
			send = p.Tracer().Snapshot()
		} else {
			recv = p.Tracer().Snapshot()
		}
		mu.Unlock()
	})
	return got, send, recv
}

func expectTileData(t *testing.T, got []float64, rows, cols int) {
	t.Helper()
	if len(got) != rows*cols {
		t.Fatalf("received %d elements, want %d", len(got), rows*cols)
	}
	for i, v := range got {
		if v != float64(i)*0.5 {
			t.Fatalf("element %d corrupted: got %v, want %v", i, v, float64(i)*0.5)
		}
	}
}

// TestGatherWireRoundTrip pins the gather wire protocol end to end on the
// MADNESS-model backend (no splitmd, so gather owns the large-payload
// path): a moved tile must travel as one gather send with its full payload
// zero-copied, decode as a view on the receiver, and leave no recv-view
// lease outstanding after the fence. The interleaved case alternates
// gather tiles with small copy-encoded scalars to the same peer: each is
// its own packet, and they must arrive intact and in the order sent.
func TestGatherWireRoundTrip(t *testing.T) {
	const rows, cols = 32, 32 // 8 KiB payload, well over the 1 KiB floor
	got, send, recv := runTileSend(t, withWorkers(backend.MADNESS(), 1), rows, cols, core.SendMove)
	expectTileData(t, got, rows, cols)
	if send.GatherSends != 1 {
		t.Fatalf("GatherSends = %d, want 1", send.GatherSends)
	}
	if want := int64(8 * rows * cols); send.BytesZeroCopied != want {
		t.Fatalf("BytesZeroCopied = %d, want %d (a moved single-dest value ships without snapshot)",
			send.BytesZeroCopied, want)
	}
	if send.CopySends != 0 {
		t.Fatalf("CopySends = %d, want 0 (the only data send took the gather path)", send.CopySends)
	}
	if recv.ViewDecodes != 1 {
		t.Fatalf("ViewDecodes = %d, want 1", recv.ViewDecodes)
	}
	if n := serde.LiveRecvViews(); n != 0 {
		t.Fatalf("LiveRecvViews = %d after fence, want 0 (lease must end when the body takes the value)", n)
	}
	t.Run("interleaved with scalars", testGatherInterleaved)
}

// TestGatherCopySemantics: a SendCopy'd value must still gather (the
// snapshot memcpy is cheaper than encode+decode) and the sender's copy must
// stay untouched by the receiver — the segments are snapshotted, not
// aliased.
func TestGatherCopySemantics(t *testing.T) {
	const rows, cols = 16, 16
	var mu sync.Mutex
	var senderAfter, got []float64
	rt := backend.New(2, withWorkers(backend.MADNESS(), 1))
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		out := core.NewEdge("out")
		g.AddTT(core.TTSpec{
			Name:    "src",
			Inputs:  []core.InputSpec{{Edge: in}},
			Outputs: []core.OutputSpec{{Edge: out}},
			Keymap:  func(any) int { return 0 },
			Body: func(ctx *core.TaskContext) {
				tl := tile.New(rows, cols)
				for i := range tl.Data {
					tl.Data[i] = float64(i)
				}
				ctx.Send(0, serde.Int1{1}, tl) // SendCopy: sender keeps tl
				for i := range tl.Data {
					tl.Data[i] = -1 // mutate after send
				}
				mu.Lock()
				senderAfter = append([]float64(nil), tl.Data...)
				mu.Unlock()
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "dst",
			Inputs: []core.InputSpec{{Edge: out}},
			Keymap: func(any) int { return 1 },
			Body: func(ctx *core.TaskContext) {
				tl := ctx.Input(0).(*tile.Tile)
				mu.Lock()
				got = append([]float64(nil), tl.Data...)
				mu.Unlock()
			},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			g.Seed(in, serde.Int1{0}, 0.0)
		}
		g.Fence()
	})
	if len(got) != rows*cols {
		t.Fatalf("received %d elements, want %d", len(got), rows*cols)
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("receiver saw element %d = %v, want %v (snapshot must isolate sender mutation)", i, v, float64(i))
		}
	}
	for i, v := range senderAfter {
		if v != -1 {
			t.Fatalf("sender's copy element %d = %v, want -1", i, v)
		}
	}
	if n := serde.LiveRecvViews(); n != 0 {
		t.Fatalf("LiveRecvViews = %d after fence, want 0", n)
	}
}

// TestGatherAblationSwitch pins the per-runtime knob: a negative gather
// threshold, or one above the payload, forces every data send back onto
// the copy-encode path, with identical results.
func TestGatherAblationSwitch(t *testing.T) {
	const rows, cols = 32, 32

	o := withWorkers(backend.MADNESS(), 1)
	o.GatherThreshold = -1
	got, send, recv := runTileSend(t, o, rows, cols, core.SendMove)
	expectTileData(t, got, rows, cols)
	if send.GatherSends != 0 {
		t.Fatalf("threshold<0: GatherSends = %d, want 0", send.GatherSends)
	}
	if send.CopySends == 0 {
		t.Fatal("threshold<0: CopySends never moved")
	}
	if recv.ViewDecodes != 0 {
		t.Fatalf("threshold<0: ViewDecodes = %d, want 0", recv.ViewDecodes)
	}

	// A threshold above the payload also declines.
	o.GatherThreshold = 1 << 20
	got, send, _ = runTileSend(t, o, rows, cols, core.SendMove)
	expectTileData(t, got, rows, cols)
	if send.GatherSends != 0 {
		t.Fatalf("threshold>payload: GatherSends = %d, want 0", send.GatherSends)
	}
}

// testGatherInterleaved: one task sends tile k then scalar k to rank 1 for
// k = 0..msgs-1. Rank 1 has one FIFO worker fed by one comm thread, so its
// sinks run in arrival order.
func testGatherInterleaved(t *testing.T) {
	const msgs = 24
	const rows, cols = 16, 16 // 2 KiB per tile
	var mu sync.Mutex
	var arrived []float64 // tile k logs k (after checking its data), scalar k logs 100+k
	var send, recv trace.Snapshot
	rt := backend.New(2, withWorkers(backend.MADNESS(), 1))
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		tiles := core.NewEdge("tiles")
		scalars := core.NewEdge("scalars")
		g.AddTT(core.TTSpec{
			Name:    "src",
			Inputs:  []core.InputSpec{{Edge: in}},
			Outputs: []core.OutputSpec{{Edge: tiles}, {Edge: scalars}},
			Keymap:  func(any) int { return 0 },
			Body: func(ctx *core.TaskContext) {
				for k := 0; k < msgs; k++ {
					tl := tile.New(rows, cols)
					for i := range tl.Data {
						tl.Data[i] = float64(k)
					}
					ctx.SendMode(0, serde.Int1{k}, tl, core.SendMove)
					ctx.Send(1, serde.Int1{k}, float64(100+k))
				}
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "tsink",
			Inputs: []core.InputSpec{{Edge: tiles}},
			Keymap: func(any) int { return 1 },
			Body: func(ctx *core.TaskContext) {
				k := ctx.Key().(serde.Int1)[0]
				for i, v := range ctx.Input(0).(*tile.Tile).Data {
					if v != float64(k) {
						t.Errorf("tile %d element %d = %v", k, i, v)
						break
					}
				}
				mu.Lock()
				arrived = append(arrived, float64(k))
				mu.Unlock()
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "ssink",
			Inputs: []core.InputSpec{{Edge: scalars}},
			Keymap: func(any) int { return 1 },
			Body: func(ctx *core.TaskContext) {
				mu.Lock()
				arrived = append(arrived, ctx.Input(0).(float64))
				mu.Unlock()
			},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			g.Seed(in, serde.Int1{0}, 0.0)
		}
		g.Fence()
		mu.Lock()
		if p.Rank() == 0 {
			send = p.Tracer().Snapshot()
		} else {
			recv = p.Tracer().Snapshot()
		}
		mu.Unlock()
	})
	if len(arrived) != 2*msgs {
		t.Fatalf("%d values arrived, want %d", len(arrived), 2*msgs)
	}
	for i, v := range arrived {
		if want := float64(i/2 + 100*(i%2)); v != want {
			t.Fatalf("arrival %d is %v, want %v: messages to one peer overtook each other", i, v, want)
		}
	}
	if send.GatherSends != msgs || send.CopySends != msgs {
		t.Fatalf("GatherSends = %d, CopySends = %d, want %d each", send.GatherSends, send.CopySends, msgs)
	}
	if send.WirePackets != send.MsgsSent {
		t.Fatalf("%d wire packets for %d messages, want one each", send.WirePackets, send.MsgsSent)
	}
	if recv.ViewDecodes != msgs {
		t.Fatalf("ViewDecodes = %d, want %d", recv.ViewDecodes, msgs)
	}
	if n := serde.LiveRecvViews(); n != 0 {
		t.Fatalf("LiveRecvViews = %d after fence, want 0", n)
	}
}

// TestRecvViewSharedReaders is the alias-safety race test: one remote tile
// decodes as a view shared read-only by several consumers on the receiving
// rank, each of which hammers the float64 pool while reading — under
// -race, any recycled-buffer aliasing between the view's payload and fresh
// pool allocations would be flagged. After the last reader drops, the
// view's buffer returns to the pool and the lease ends.
func TestRecvViewSharedReaders(t *testing.T) {
	const rows, cols = 16, 16
	const readers = 6
	var mu sync.Mutex
	sums := map[int]float64{}
	rt := backend.New(2, withWorkers(backend.PaRSEC(), 4))
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		out := core.NewEdge("out")
		g.AddTT(core.TTSpec{
			Name:    "src",
			Inputs:  []core.InputSpec{{Edge: in}},
			Outputs: []core.OutputSpec{{Edge: out}},
			Keymap:  func(any) int { return 0 },
			Body: func(ctx *core.TaskContext) {
				tl := tile.NewPooled(rows, cols)
				for i := range tl.Data {
					tl.Data[i] = float64(i % 7)
				}
				keys := make([]any, readers)
				for k := range keys {
					keys[k] = serde.Int1{k}
				}
				ctx.BroadcastMode(0, keys, tl, core.SendMove)
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "reader",
			Inputs: []core.InputSpec{{Edge: out, Access: core.ReadOnly}},
			Keymap: func(any) int { return 1 },
			Body: func(ctx *core.TaskContext) {
				tl := ctx.Input(0).(*tile.Tile)
				s := 0.0
				for i, v := range tl.Data {
					// Churn the pool mid-read: fresh allocations must never
					// alias the view's leased payload.
					scratch := pool.Float64s(rows * cols)
					scratch[i] = v
					s += scratch[i]
					pool.PutFloat64s(scratch)
				}
				mu.Lock()
				sums[ctx.Key().(serde.Int1)[0]] = s
				mu.Unlock()
			},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			g.Seed(in, serde.Int1{0}, 0.0)
		}
		g.Fence()
	})
	want := 0.0
	for i := 0; i < rows*cols; i++ {
		want += float64(i % 7)
	}
	if len(sums) != readers {
		t.Fatalf("%d readers fired, want %d", len(sums), readers)
	}
	for k, s := range sums {
		if s != want {
			t.Fatalf("reader %d sum = %v, want %v", k, s, want)
		}
	}
	if n := serde.LiveRecvViews(); n != 0 {
		t.Fatalf("LiveRecvViews = %d after fence, want 0 (last reader drop must retire the lease)", n)
	}
}

// TestDoctorReportsLeakedRecvView deliberately parks a view-decoded value
// in a never-ready shell (its second input never arrives) and checks the
// post-fence doctor flags the outstanding lease; completing the graph is
// not required for the fence to return — partially filled shells hold no
// activation — which is exactly the wedge the doctor exists for.
func TestDoctorReportsLeakedRecvView(t *testing.T) {
	const rows, cols = 32, 32
	rt := backend.New(2, withWorkers(backend.MADNESS(), 1))
	var rep *live.StallReport
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		out := core.NewEdge("out")
		never := core.NewEdge("never")
		g.AddTT(core.TTSpec{
			Name:    "src",
			Inputs:  []core.InputSpec{{Edge: in}},
			Outputs: []core.OutputSpec{{Edge: out}},
			Keymap:  func(any) int { return 0 },
			Body: func(ctx *core.TaskContext) {
				tl := tile.NewPooled(rows, cols)
				for i := range tl.Data {
					tl.Data[i] = 1
				}
				ctx.SendMode(0, serde.Int1{1}, tl, core.SendMove)
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "stuck",
			Inputs: []core.InputSpec{{Edge: out}, {Edge: never}},
			Keymap: func(any) int { return 1 },
			Body:   func(ctx *core.TaskContext) {},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			g.Seed(in, serde.Int1{0}, 0.0)
		}
		g.Fence()
		if p.Rank() == 0 {
			doc := live.NewDoctor(live.Config{}, rt.LiveTargets()...)
			rep = doc.Diagnose()
		}
	})
	if n := serde.LiveRecvViews(); n != 1 {
		t.Fatalf("LiveRecvViews = %d, want 1 (the view is parked in the stuck shell)", n)
	}
	// Rebalance the process-global ledger for the rest of the test binary.
	defer serde.NoteViewEnd()
	if rep == nil {
		t.Fatal("doctor returned nil for a wedged graph holding a recv view")
	}
	if rep.RecvViews != 1 {
		t.Fatalf("StallReport.RecvViews = %d, want 1", rep.RecvViews)
	}
	if rep.Pending == 0 {
		t.Fatalf("StallReport.Pending = 0, want the stuck shell counted")
	}
	if s := rep.String(); !contains(s, "receive view") {
		t.Fatalf("report does not warn about the leaked view:\n%s", s)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
