package ttg_test

import (
	"testing"

	"repro/internal/serde"
	"repro/ttg"
)

// TestTypedSurface drives the remaining typed operations end-to-end in one
// program: MakeTT4, context accessors, Broadcast/BroadcastM, stream
// control from tasks and seeds, and the Invoke wrappers.
func TestTypedSurface(t *testing.T) {
	var joined, streamed, ctlStreamed float64
	var invoked1, invoked3 float64
	ttg.Run(ttg.Config{Ranks: 2, WorkersPerRank: 1}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		drive := ttg.NewEdge[ttg.Int1, ttg.Void]("drive")
		a := ttg.NewEdge[ttg.Int1, float64]("a")
		b := ttg.NewEdge[ttg.Int1, float64]("b")
		c := ttg.NewEdge[ttg.Int1, float64]("c")
		d := ttg.NewEdge[ttg.Int1, float64]("d")
		str := ttg.NewEdge[ttg.Int1, float64]("str")
		ctl := ttg.NewEdge[ttg.Int1, float64]("ctl")
		one := ttg.NewEdge[ttg.Int1, float64]("one")
		three1 := ttg.NewEdge[ttg.Int1, float64]("t1")
		three2 := ttg.NewEdge[ttg.Int1, float64]("t2")
		three3 := ttg.NewEdge[ttg.Int1, float64]("t3")

		if a.Name() != "a" {
			t.Error("edge accessors broken")
		}

		ttg.MakeTT1(g, "driver", ttg.Input(drive),
			ttg.Out(a, b, c, d, str, ctl),
			func(x *ttg.Ctx[ttg.Int1], _ ttg.Void) {
				if x.Rank() < 0 || x.Size() != 2 || x.Worker() < 0 {
					t.Error("ctx accessors broken")
				}
				// Broadcast and BroadcastM on single keys.
				ttg.Broadcast(x, a, []ttg.Int1{{0}}, 2.0)
				ttg.BroadcastM(x, b, []ttg.Int1{{0}}, 3.0, ttg.Borrow)
				ttg.Send(x, c, ttg.Int1{0}, 5.0)
				ttg.Send(x, d, ttg.Int1{0}, 7.0)
				// Stream closed from the task via SetStreamSize.
				ttg.SetStreamSize(x, str, ttg.Int1{1}, 2)
				ttg.Send(x, str, ttg.Int1{1}, 10)
				ttg.Send(x, str, ttg.Int1{1}, 20)
				// Stream closed from the task via Finalize.
				ttg.Send(x, ctl, ttg.Int1{2}, 100)
				ttg.Finalize(x, ctl, ttg.Int1{2})
			},
		)
		joinTT := ttg.MakeTT4(g, "join4",
			ttg.Input(a), ttg.Input(b), ttg.Input(c), ttg.Input(d), nil,
			func(x *ttg.Ctx[ttg.Int1], va, vb, vc, vd float64) {
				joined = va*vb + vc*vd
			},
			ttg.Options[ttg.Int1]{Keymap: func(ttg.Int1) int { return 0 }},
		)
		if joinTT.Name() != "join4" {
			t.Errorf("TT name = %q", joinTT.Name())
		}
		sum := func(x, y float64) float64 { return x + y }
		ttg.MakeTT1(g, "strsink",
			ttg.ReduceInput(str, sum, nil), nil,
			func(x *ttg.Ctx[ttg.Int1], v float64) { streamed = v },
			ttg.Options[ttg.Int1]{Keymap: func(ttg.Int1) int { return 0 }},
		)
		ttg.MakeTT1(g, "ctlsink",
			ttg.ReduceInput(ctl, sum, nil), nil,
			func(x *ttg.Ctx[ttg.Int1], v float64) { ctlStreamed = v },
			ttg.Options[ttg.Int1]{Keymap: func(ttg.Int1) int { return 0 }},
		)
		oneTT := ttg.MakeTT1(g, "one", ttg.Input(one), nil,
			func(x *ttg.Ctx[ttg.Int1], v float64) { invoked1 = v },
			ttg.Options[ttg.Int1]{Keymap: func(ttg.Int1) int { return 0 }},
		)
		threeTT := ttg.MakeTT3(g, "three",
			ttg.Input(three1), ttg.Input(three2), ttg.Input(three3), nil,
			func(x *ttg.Ctx[ttg.Int1], p, q, r float64) { invoked3 = p + q + r },
			ttg.Options[ttg.Int1]{Keymap: func(ttg.Int1) int { return 0 }},
		)
		g.MakeExecutable()
		if pc.Rank() == 0 {
			// Typed seed broadcast + seeded stream control.
			ttg.SeedBroadcast(g, drive, []ttg.Int1{{0}}, ttg.Void{})
			ttg.Invoke1(oneTT, ttg.Int1{9}, 4.5)
			ttg.Invoke3(threeTT, ttg.Int1{9}, 1.0, 2.0, 3.0)
		}
		// Exercise SeedSetStreamSize on a fresh keyed stream.
		if pc.Rank() == 0 {
			ttg.SeedSetStreamSize(g, str, ttg.Int1{5}, 1)
			ttg.Seed(g, str, ttg.Int1{5}, 0.0)
		}
		g.Fence()
	})
	if joined != 2*3+5*7 {
		t.Errorf("join4 = %v", joined)
	}
	if streamed != 30 {
		t.Errorf("stream via SetStreamSize = %v", streamed)
	}
	if ctlStreamed != 100 {
		t.Errorf("stream via Finalize = %v", ctlStreamed)
	}
	if invoked1 != 4.5 || invoked3 != 6 {
		t.Errorf("invokes = %v, %v", invoked1, invoked3)
	}
}

// TestCodecRegistrationWrappers covers the public registration helpers.
func TestCodecRegistrationWrappers(t *testing.T) {
	type pair struct{ A, B float64 }
	ttg.RegisterCodec(serde.FuncCodec[pair]{
		Enc:  func(b *serde.Buffer, v pair) { b.PutF64(v.A); b.PutF64(v.B) },
		Dec:  func(b *serde.Buffer) pair { return pair{A: b.F64(), B: b.F64()} },
		Size: func(pair) int { return 16 },
	})
	b := serde.NewBuffer(16)
	serde.EncodeAny(b, pair{A: 1, B: 2})
	if got := serde.DecodeAny(serde.FromBytes(b.Bytes())).(pair); got.A != 1 || got.B != 2 {
		t.Fatalf("round trip = %+v", got)
	}
}
