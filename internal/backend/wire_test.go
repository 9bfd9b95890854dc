package backend_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/apps/mra"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs/live"
	"repro/internal/pool"
	"repro/internal/serde"
	"repro/internal/tile"
	"repro/internal/trace"
)

// runTileSend ships one rows x cols tile from rank 0 to rank 1 with the
// given send mode over cfg on the given fabric (runOn's transports) and
// returns the received tile's data plus both ranks' trace snapshots. The
// payload is pool-backed (tile.NewPooled) so the zero-copy path exercises
// real pooled memory.
func runTileSend(t *testing.T, transport string, cfg backend.Options, rows, cols int, mode core.SendMode) (got []float64, send, recv trace.Snapshot) {
	t.Helper()
	var mu sync.Mutex
	runOn(t, transport, 2, cfg, func(p *backend.Proc) {
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
				ctx.SendEdge(out, core.KeyOf(serde.Int1{1}), tl, mode)
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

// gatherCases runs f over the matrix the gather wire tests share: both
// presets (gather is the only by-reference path under either), a 2 KiB and
// a 128 KiB tile, and both fabrics — by-reference in process, landed into
// pooled memory off a real socket.
func gatherCases(t *testing.T, f func(t *testing.T, transport string, opts backend.Options, n int)) {
	for _, preset := range []backend.Options{backend.MADNESS(), backend.PaRSEC()} {
		for _, n := range []int{16, 128} {
			for _, transport := range transports {
				t.Run(fmt.Sprintf("%s/%dx%d/%s", preset.Name, n, n, transport), func(t *testing.T) {
					f(t, transport, withWorkers(preset, 1), n)
				})
			}
		}
	}
}

// TestGatherWireRoundTrip pins the gather wire protocol end to end: a
// moved tile must travel as one gather send — one counted message, one
// packet — with its full payload zero-copied, decode as a view on the
// receiver, and leave no recv-view lease outstanding after the fence. The
// interleaved case alternates gather tiles with small copy-encoded scalars
// to the same peer: each is its own packet, and they must arrive intact
// and in the order sent.
func TestGatherWireRoundTrip(t *testing.T) {
	gatherCases(t, func(t *testing.T, transport string, opts backend.Options, n int) {
		got, send, recv := runTileSend(t, transport, opts, n, n, core.SendMove)
		expectTileData(t, got, n, n)
		if send.GatherSends != 1 || send.SplitMDTransfers != 0 || send.CopySends != 0 {
			t.Fatalf("gather=%d splitmd=%d copy=%d, want 1, 0, 0 (the only data send took the gather path)",
				send.GatherSends, send.SplitMDTransfers, send.CopySends)
		}
		if send.MsgsSent != 1 || send.WirePackets != 1 {
			t.Fatalf("MsgsSent = %d, WirePackets = %d, want one message in one packet", send.MsgsSent, send.WirePackets)
		}
		if want := int64(8 * n * n); send.BytesZeroCopied != want {
			t.Fatalf("BytesZeroCopied = %d, want %d (a moved single-dest value ships without snapshot)",
				send.BytesZeroCopied, want)
		}
		if recv.ViewDecodes != 1 {
			t.Fatalf("ViewDecodes = %d, want 1", recv.ViewDecodes)
		}
		if n := serde.LiveRecvViews(); n != 0 {
			t.Fatalf("LiveRecvViews = %d after fence, want 0 (lease must end when the body takes the value)", n)
		}
	})
	t.Run("interleaved with scalars", testGatherInterleaved)
}

// TestGatherCopySemantics: a value the sender keeps must still gather (the
// snapshot memcpy is cheaper than encode+decode) and stay untouched by the
// transport and the receiver — the segments are snapshotted, not aliased.
// The sender overwrites its tile right after a SendCopy; the receiver must
// see the original.
func TestGatherCopySemantics(t *testing.T) {
	gatherCases(t, func(t *testing.T, transport string, opts backend.Options, n int) {
		var mu sync.Mutex
		var senderAfter, got []float64
		runOn(t, transport, 2, opts, func(p *backend.Proc) {
			g := p.NewGraph()
			in := core.NewEdge("in")
			out := core.NewEdge("out")
			g.AddTT(core.TTSpec{
				Name:    "src",
				Inputs:  []core.InputSpec{{Edge: in}},
				Outputs: []core.OutputSpec{{Edge: out}},
				Keymap:  func(any) int { return 0 },
				Body: func(ctx *core.TaskContext) {
					tl := tile.New(n, n)
					for i := range tl.Data {
						tl.Data[i] = float64(i)
					}
					ctx.SendEdge(out, core.KeyOf(serde.Int1{1}), tl, core.SendCopy) // sender keeps tl
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
		if len(got) != n*n {
			t.Fatalf("received %d elements, want %d", len(got), n*n)
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
	})
	for _, transport := range transports {
		t.Run("borrowed with a local reader/"+transport, func(t *testing.T) {
			testGatherBorrowedLocalReader(t, transport)
		})
	}
}

// testGatherBorrowedLocalReader is the case SendPlan.Snapshot = !OwnsValue
// exists for, under the data-tracking PaRSEC preset: one pooled 128 KiB
// tile is borrowed to a ReadOnly consumer on the sending rank and a
// consumer on the far rank. The local reader holds the very object the
// send references, and a fabric owns the segments it is handed outright —
// netfab returns them to the float64 pool once written — so without the
// snapshot the reader's payload would be recycled under it. The reader
// churns that pool while it reads; under -race any such aliasing is
// flagged, and both consumers must see the original values.
func testGatherBorrowedLocalReader(t *testing.T, transport string) {
	const n = 128
	var mu sync.Mutex
	sums := map[int]float64{}
	var send trace.Snapshot
	runOn(t, transport, 2, withWorkers(backend.PaRSEC(), 2), func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		out := core.NewEdge("out")
		g.AddTT(core.TTSpec{
			Name:    "src",
			Inputs:  []core.InputSpec{{Edge: in}},
			Outputs: []core.OutputSpec{{Edge: out}},
			Keymap:  func(any) int { return 0 },
			Body: func(ctx *core.TaskContext) {
				tl := tile.NewPooled(n, n)
				for i := range tl.Data {
					tl.Data[i] = float64(i % 7)
				}
				ctx.BroadcastEdge(out, []core.Key{core.KeyOf(serde.Int1{0}), core.KeyOf(serde.Int1{1})}, tl, core.SendBorrow)
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "reader",
			Inputs: []core.InputSpec{{Edge: out, Access: core.ReadOnly}},
			Keymap: func(k any) int { return k.(serde.Int1)[0] },
			Body: func(ctx *core.TaskContext) {
				tl := ctx.Input(0).(*tile.Tile)
				s := 0.0
				for i, v := range tl.Data {
					if i%64 == 0 {
						scratch := pool.Float64s(n * n)
						scratch[i] = v
						pool.PutFloat64s(scratch)
					}
					s += v
				}
				mu.Lock()
				sums[p.Rank()] = s
				mu.Unlock()
			},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			g.Seed(in, serde.Int1{0}, 0.0)
		}
		g.Fence()
		if p.Rank() == 0 {
			mu.Lock()
			send = p.Tracer().Snapshot()
			mu.Unlock()
		}
	})
	want := 0.0
	for i := 0; i < n*n; i++ {
		want += float64(i % 7)
	}
	if len(sums) != 2 || sums[0] != want || sums[1] != want {
		t.Fatalf("reader sums by rank = %v, want %v on ranks 0 and 1", sums, want)
	}
	if send.GatherSends != 1 || send.SplitMDTransfers != 0 || send.MsgsSent != 1 {
		t.Fatalf("gather=%d splitmd=%d msgs=%d, want the one remote copy as one gather message",
			send.GatherSends, send.SplitMDTransfers, send.MsgsSent)
	}
	if n := serde.LiveRecvViews(); n != 0 {
		t.Fatalf("LiveRecvViews = %d after fence, want 0", n)
	}
}

// TestGatherDecodeChecksWireLengths: decodeGather lands every by-reference
// payload byte, and every length it and the codecs' Scatter read is the
// sender's claim. Each gather codec in the tree gets one well-formed packet
// (the control: it must decode) and four malformed ones — the gather
// header's length prefix running past the packet, the gather header cut
// short, one more segment counted than carried, and the last segment one
// element shorter than the shape in the header (len < shape ≤ cap: the
// re-slice that would expose stale pool memory). Each must panic naming
// the packet kind and the source rank, and register no receive view.
func TestGatherDecodeChecksWireLengths(t *testing.T) {
	const src = 3
	rt := backend.New(1, withWorkers(backend.PaRSEC(), 1))
	defer rt.Shutdown()
	p := rt.Proc(0)

	pooledF64 := func(n int) []float64 {
		s := pool.Float64s(n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	tl := tile.NewPooled(16, 16)
	values := []any{
		tl,
		pooledF64(200),
		pool.Bytes(1500)[:1500],
		&mra.TreeMsg{LeafMask: 5, Children: [][]float64{pooledF64(64), nil, pooledF64(64)}},
		&mra.DMsg{LeafMask: 3, D: pooledF64(128)},
	}
	// packet frames v's gather form the way deliverGather does, with the
	// header's length prefix off by lenSkew, its last cut bytes dropped, the
	// segment count off by segSkew and the last segment shrink elements
	// short.
	packet := func(v any, lenSkew, cut, segSkew, shrink int) fabric.Packet {
		c := serde.LookupCached(v)
		g, _ := c.Gatherer()
		hdr := serde.NewBuffer(64)
		segs, ok := g.Segments(hdr, v)
		if !ok {
			t.Fatalf("%T declined to gather", v)
		}
		segs = append([]serde.Segment(nil), segs...)
		if last := &segs[len(segs)-1]; last.F64 != nil {
			last.F64 = last.F64[:len(last.F64)-shrink]
		} else {
			last.B = last.B[:len(last.B)-shrink]
		}
		h := hdr.Bytes()
		h = h[:len(h)-cut]
		b := serde.NewBuffer(256)
		core.EncodeHeader(b, core.Delivery{})
		b.PutUvarint(uint64(c.Tag()))
		b.PutUvarint(uint64(len(h) + lenSkew))
		b.PutRaw(h)
		b.PutUvarint(uint64(len(segs) + segSkew))
		return fabric.Packet{Src: src, Data: b.Bytes(), Segs: segs}
	}
	for _, v := range values {
		d := backend.DecodeGather(p, packet(v, 0, 0, 0, 0))
		if d.Value == nil || !d.Exclusive {
			t.Fatalf("%T: well-formed packet decoded to %+v", v, d)
		}
		if l, ok := d.Value.(serde.ViewLease); ok {
			l.EndViewLease()
		}
		for _, bad := range []struct {
			name                          string
			lenSkew, cut, segSkew, shrink int
		}{
			{"header length past the packet", 1000, 0, 0, 0},
			{"header cut short", 0, 1, 0, 0},
			{"one segment too many counted", 0, 0, 1, 0},
			{"shape larger than its segment", 0, 0, 0, 1},
		} {
			pkt := packet(v, bad.lenSkew, bad.cut, bad.segSkew, bad.shrink)
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if !contains(msg, "kGatherData") || !contains(msg, fmt.Sprintf("rank %d", src)) {
						t.Errorf("%T, %s: recovered %q, want a panic naming kGatherData and rank %d", v, bad.name, msg, src)
					}
				}()
				d := backend.DecodeGather(p, pkt)
				t.Errorf("%T, %s: decoded to %v", v, bad.name, d.Value)
			}()
		}
	}
	if n := serde.LiveRecvViews(); n != 0 {
		t.Fatalf("LiveRecvViews = %d, want 0: a refused packet must not register a view", n)
	}
}

// TestGatherAblationSwitch pins the per-runtime knob: a negative gather
// threshold, or one above the payload, forces every data send back onto
// the copy-encode path, with identical results.
func TestGatherAblationSwitch(t *testing.T) {
	const rows, cols = 32, 32

	o := withWorkers(backend.MADNESS(), 1)
	o.GatherThreshold = -1
	got, send, recv := runTileSend(t, "simnet", o, rows, cols, core.SendMove)
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
	got, send, _ = runTileSend(t, "simnet", o, rows, cols, core.SendMove)
	expectTileData(t, got, rows, cols)
	if send.GatherSends != 0 {
		t.Fatalf("threshold>payload: GatherSends = %d, want 0", send.GatherSends)
	}
}

// testGatherInterleaved: one task sends tile k then scalar k to rank 1 for
// k = 0..msgs-1. Rank 1 has one FIFO worker, and its handler takes the
// one sender's packets in send order, so its sinks run in arrival order.
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
					ctx.SendEdge(tiles, core.KeyOf(serde.Int1{k}), tl, core.SendMove)
					ctx.SendEdge(scalars, core.KeyOf(serde.Int1{k}), float64(100+k), core.SendCopy)
				}
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "tsink",
			Inputs: []core.InputSpec{{Edge: tiles}},
			Keymap: func(any) int { return 1 },
			Body: func(ctx *core.TaskContext) {
				k := ctx.Key().Value().(serde.Int1)[0]
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
				keys := make([]core.Key, readers)
				for k := range keys {
					keys[k] = core.KeyOf(serde.Int1{k})
				}
				ctx.BroadcastEdge(out, keys, tl, core.SendMove)
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
				sums[ctx.Key().Value().(serde.Int1)[0]] = s
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
				ctx.SendEdge(out, core.KeyOf(serde.Int1{1}), tl, core.SendMove)
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
