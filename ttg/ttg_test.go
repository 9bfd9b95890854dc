package ttg_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/ttg"
)

// TestTypedPipelineBothBackends runs a typed two-stage pipeline on both
// runtime models.
func TestTypedPipelineBothBackends(t *testing.T) {
	for _, be := range []ttg.Backend{ttg.PaRSEC, ttg.MADNESS} {
		t.Run(be.String(), func(t *testing.T) {
			var mu sync.Mutex
			got := map[int]float64{}
			ttg.Run(ttg.Config{Ranks: 3, WorkersPerRank: 2, Backend: be}, func(pc *ttg.Process) {
				g := pc.NewGraph()
				in := ttg.NewEdge[ttg.Int1, float64]("in")
				mid := ttg.NewEdge[ttg.Int1, float64]("mid")
				ttg.MakeTT1(g, "double",
					ttg.Input(in), ttg.Out(mid),
					func(x *ttg.Ctx[ttg.Int1], v float64) {
						ttg.Send(x, mid, x.Key(), v*2)
					},
					ttg.Options[ttg.Int1]{Keymap: func(k ttg.Int1) int { return k[0] % pc.Size() }},
				)
				ttg.MakeTT1(g, "store",
					ttg.Input(mid), nil,
					func(x *ttg.Ctx[ttg.Int1], v float64) {
						mu.Lock()
						got[x.Key()[0]] = v
						mu.Unlock()
					},
					ttg.Options[ttg.Int1]{Keymap: func(k ttg.Int1) int { return (k[0] + 1) % pc.Size() }},
				)
				g.MakeExecutable()
				if pc.Rank() == 0 {
					for k := 0; k < 9; k++ {
						ttg.Seed(g, in, ttg.Int1{k}, float64(k))
					}
				}
				g.Fence()
			})
			for k := 0; k < 9; k++ {
				if got[k] != float64(2*k) {
					t.Fatalf("key %d = %v, want %v", k, got[k], 2*k)
				}
			}
		})
	}
}

// TestTypedKeyTransitionAndBroadcastMulti reproduces the Listing 1 TRSM
// pattern: an Int2-keyed task broadcasting one value to terminals keyed by
// Int2 and Int3.
func TestTypedKeyTransitionAndBroadcastMulti(t *testing.T) {
	var mu sync.Mutex
	var int2Hits, int3Hits int
	ttg.Run(ttg.Config{Ranks: 2, WorkersPerRank: 2}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		in := ttg.NewEdge[ttg.Int2, float64]("in")
		toSyrk := ttg.NewEdge[ttg.Int2, float64]("syrk")
		toGemmRow := ttg.NewEdge[ttg.Int3, float64]("gemm_row")
		toGemmCol := ttg.NewEdge[ttg.Int3, float64]("gemm_col")
		ttg.MakeTT1(g, "TRSM",
			ttg.Input(in), ttg.Out(toSyrk, toGemmRow, toGemmCol),
			func(x *ttg.Ctx[ttg.Int2], tile float64) {
				id := x.Key()
				var rows, cols []ttg.Int3
				for n := 0; n < 3; n++ {
					rows = append(rows, ttg.Int3{id[0], n, id[1]})
					cols = append(cols, ttg.Int3{n, id[0], id[1]})
				}
				ttg.BroadcastMulti(x, tile*10, ttg.Copy,
					ttg.To(toSyrk, ttg.Int2{id[0] + 1, id[1]}),
					ttg.To(toGemmRow, rows...),
					ttg.To(toGemmCol, cols...),
				)
			},
		)
		ttg.MakeTT1(g, "SYRK", ttg.Input(toSyrk), nil,
			func(x *ttg.Ctx[ttg.Int2], v float64) {
				mu.Lock()
				int2Hits++
				mu.Unlock()
				if v != 15 {
					t.Errorf("SYRK got %v, want 15", v)
				}
			},
		)
		gemmIn := func(name string, e ttg.Edge[ttg.Int3, float64]) {
			ttg.MakeTT1(g, name, ttg.Input(e), nil,
				func(x *ttg.Ctx[ttg.Int3], v float64) {
					mu.Lock()
					int3Hits++
					mu.Unlock()
				},
			)
		}
		gemmIn("GEMMrow", toGemmRow)
		gemmIn("GEMMcol", toGemmCol)
		g.MakeExecutable()
		if pc.Rank() == 0 {
			ttg.Seed(g, in, ttg.Int2{1, 0}, 1.5)
		}
		g.Fence()
	})
	if int2Hits != 1 || int3Hits != 6 {
		t.Fatalf("int2Hits=%d int3Hits=%d, want 1, 6", int2Hits, int3Hits)
	}
}

// TestTypedStreamingReducer drives a d-independent accumulation, the MRA
// compress pattern of Listing 3: 2^d children stream into one parent.
func TestTypedStreamingReducer(t *testing.T) {
	const d = 3
	var got float64
	ttg.Run(ttg.Config{Ranks: 2, WorkersPerRank: 1}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		in := ttg.NewEdge[ttg.Int1, float64]("in")
		acc := ttg.NewEdge[ttg.Int1, float64]("acc")
		ttg.MakeTT1(g, "child", ttg.Input(in), ttg.Out(acc),
			func(x *ttg.Ctx[ttg.Int1], v float64) {
				ttg.Send(x, acc, ttg.Int1{0}, v)
			},
		)
		ttg.MakeTT1(g, "compress",
			ttg.ReduceInput(acc,
				func(a, v float64) float64 { return a + v },
				func(ttg.Int1) int { return 1 << d },
			), nil,
			func(x *ttg.Ctx[ttg.Int1], sum float64) { got = sum },
			ttg.Options[ttg.Int1]{Keymap: func(ttg.Int1) int { return 0 }},
		)
		g.MakeExecutable()
		if pc.Rank() == 0 {
			for i := 0; i < 1<<d; i++ {
				ttg.Seed(g, in, ttg.Int1{i}, 1.0)
			}
		}
		g.Fence()
	})
	if got != 8 {
		t.Fatalf("compressed sum = %v, want 8", got)
	}
}

// TestTypedMultiInputTT exercises MakeTT2 and MakeTT3 joins.
func TestTypedMultiInputTT(t *testing.T) {
	var got float64
	ttg.Run(ttg.Config{Ranks: 2, WorkersPerRank: 1}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		in := ttg.NewEdge[ttg.Int1, float64]("in")
		a := ttg.NewEdge[ttg.Int1, float64]("a")
		b := ttg.NewEdge[ttg.Int1, int]("b")
		c := ttg.NewEdge[ttg.Int1, string]("c")
		ttg.MakeTT1(g, "fan", ttg.Input(in), ttg.Out(a, b, c),
			func(x *ttg.Ctx[ttg.Int1], v float64) {
				ttg.Send(x, a, x.Key(), v)
				ttg.Send(x, b, x.Key(), 3)
				ttg.Send(x, c, x.Key(), "x")
			},
		)
		ttg.MakeTT3(g, "join",
			ttg.Input(a), ttg.Input(b), ttg.Input(c), nil,
			func(x *ttg.Ctx[ttg.Int1], va float64, vb int, vc string) {
				got = va * float64(vb) * float64(len(vc))
			},
			ttg.Options[ttg.Int1]{Keymap: func(ttg.Int1) int { return 1 }},
		)
		g.MakeExecutable()
		if pc.Rank() == 0 {
			ttg.Seed(g, in, ttg.Int1{0}, 2.5)
		}
		g.Fence()
	})
	if got != 7.5 {
		t.Fatalf("join result = %v, want 7.5", got)
	}
}

// TestVoidKeyAndVoidData covers pure dataflow (void key) and pure control
// flow (void data) messages.
func TestVoidKeyAndVoidData(t *testing.T) {
	var dataFired, ctrlFired bool
	ttg.Run(ttg.Config{Ranks: 1}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		vdata := ttg.NewEdge[ttg.Void, float64]("pure-dataflow")
		vctrl := ttg.NewEdge[ttg.Int1, ttg.Void]("pure-control")
		ttg.MakeTT1(g, "data", ttg.Input(vdata), ttg.Out(vctrl),
			func(x *ttg.Ctx[ttg.Void], v float64) {
				dataFired = v == 1.25
				ttg.Send(x, vctrl, ttg.Int1{7}, ttg.Void{})
			},
		)
		ttg.MakeTT1(g, "ctrl", ttg.Input(vctrl), nil,
			func(x *ttg.Ctx[ttg.Int1], _ ttg.Void) {
				ctrlFired = x.Key()[0] == 7
			},
		)
		g.MakeExecutable()
		ttg.Seed(g, vdata, ttg.Void{}, 1.25)
		g.Fence()
	})
	if !dataFired || !ctrlFired {
		t.Fatalf("dataFired=%v ctrlFired=%v", dataFired, ctrlFired)
	}
}

// TestSeedFinalizeOpenStream seeds an unbounded stream and closes it from
// outside tasks.
func TestSeedFinalizeOpenStream(t *testing.T) {
	var got float64
	ttg.Run(ttg.Config{Ranks: 1}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		acc := ttg.NewEdge[ttg.Int1, float64]("acc")
		ttg.MakeTT1(g, "sum",
			ttg.ReduceInput(acc, func(a, v float64) float64 { return a + v }, nil), nil,
			func(x *ttg.Ctx[ttg.Int1], sum float64) { got = sum },
		)
		g.MakeExecutable()
		for i := 1; i <= 5; i++ {
			ttg.Seed(g, acc, ttg.Int1{0}, float64(i))
		}
		ttg.SeedFinalize(g, acc, ttg.Int1{0})
		g.Fence()
	})
	if got != 15 {
		t.Fatalf("open-stream sum = %v, want 15", got)
	}
}

// TestPriorityMapReachesScheduler checks Options.Priomap flows to tasks.
func TestPriorityMapReachesScheduler(t *testing.T) {
	var mu sync.Mutex
	var order []int
	ttg.Run(ttg.Config{Ranks: 1, WorkersPerRank: 1}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		in := ttg.NewEdge[ttg.Int1, ttg.Void]("in")
		work := ttg.NewEdge[ttg.Int1, ttg.Void]("work")
		// A driver floods the queue in one task so priorities decide order.
		ttg.MakeTT1(g, "driver", ttg.Input(in), ttg.Out(work),
			func(x *ttg.Ctx[ttg.Int1], _ ttg.Void) {
				for k := 0; k < 8; k++ {
					ttg.Send(x, work, ttg.Int1{k}, ttg.Void{})
				}
			},
		)
		ttg.MakeTT1(g, "work", ttg.Input(work), nil,
			func(x *ttg.Ctx[ttg.Int1], _ ttg.Void) {
				mu.Lock()
				order = append(order, x.Key()[0])
				mu.Unlock()
			},
			ttg.Options[ttg.Int1]{Priomap: func(k ttg.Int1) int64 { return int64(k[0]) }},
		)
		g.MakeExecutable()
		ttg.Seed(g, in, ttg.Int1{0}, ttg.Void{})
		g.Fence()
	})
	if len(order) != 8 {
		t.Fatalf("ran %d tasks", len(order))
	}
	// With a single worker and a priority queue, high keys run first once
	// the queue is populated; at minimum the last task must be key 0.
	if order[len(order)-1] != 0 {
		t.Fatalf("priority order = %v; lowest priority should finish last", order)
	}
}

// TestTypedKeyBox runs a join whose options declare a key box covering
// half its keys: keys inside the box and outside it must both join, on
// two ranks with two workers each.
func TestTypedKeyBox(t *testing.T) {
	const n, box = 512, 256
	var sum atomic.Int64
	ttg.Run(ttg.Config{Ranks: 2, WorkersPerRank: 2}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		in := ttg.NewEdge[ttg.Int1, int]("in")
		a := ttg.NewEdge[ttg.Int1, int]("a")
		b := ttg.NewEdge[ttg.Int1, int]("b")
		ttg.MakeTT1(g, "fan", ttg.Input(in), ttg.Out(a, b),
			func(x *ttg.Ctx[ttg.Int1], v int) {
				ttg.Send(x, a, x.Key(), v)
				ttg.Send(x, b, x.Key(), 2*v)
			},
		)
		ttg.MakeTT2(g, "join", ttg.Input(a), ttg.Input(b), nil,
			func(x *ttg.Ctx[ttg.Int1], va, vb int) { sum.Add(int64(va + vb)) },
			ttg.Options[ttg.Int1]{
				Keymap: func(k ttg.Int1) int { return k[0] % 2 },
				Slots:  box,
				Index: func(k ttg.Int1) int {
					if k[0] < box {
						return k[0]
					}
					return -1
				},
				KeyAt: func(i int) ttg.Int1 { return ttg.Int1{i} },
			},
		)
		g.MakeExecutable()
		if pc.Rank() == 0 {
			for k := 0; k < n; k++ {
				ttg.Seed(g, in, ttg.Int1{k}, k)
			}
		}
		g.Fence()
	})
	if got, want := sum.Load(), int64(3*n*(n-1)/2); got != want {
		t.Fatalf("join sum = %d, want %d", got, want)
	}
}
