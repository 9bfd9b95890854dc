package mra

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/backend/sim"
	"repro/internal/cluster"
	"repro/internal/serde"
	"repro/ttg"
)

func runTTG(t *testing.T, be ttg.Backend, ranks int, opts Options) map[int]float64 {
	t.Helper()
	return runTTGWorkers(t, be, ranks, 2, opts)
}

func runTTGWorkers(t *testing.T, be ttg.Backend, ranks, workers int, opts Options) map[int]float64 {
	t.Helper()
	var mu sync.Mutex
	norms := map[int]float64{}
	opts.Variant = TTGVariant
	opts.OnNorm = func(f int, n float64) {
		mu.Lock()
		norms[f] = n
		mu.Unlock()
	}
	ttg.Run(ttg.Config{Ranks: ranks, WorkersPerRank: workers, Backend: be}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := Build(g, opts)
		g.MakeExecutable()
		app.SeedProject()
		g.Fence()
	})
	return norms
}

func runPhased(t *testing.T, ranks int, opts Options) map[int]float64 {
	t.Helper()
	var mu sync.Mutex
	norms := map[int]float64{}
	opts.Variant = NativeMADNESSModel
	opts.OnNorm = func(f int, n float64) {
		mu.Lock()
		norms[f] = n
		mu.Unlock()
	}
	ttg.Run(ttg.Config{Ranks: ranks, WorkersPerRank: 2}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := Build(g, opts)
		g.MakeExecutable()
		app.SeedProject()
		g.Fence()
		app.SeedCompressPhase()
		g.Fence()
		app.SeedReconstructPhase()
		g.Fence()
		app.SeedNormPhase()
		g.Fence()
	})
	return norms
}

func checkNorms(t *testing.T, opts Options, norms map[int]float64) {
	t.Helper()
	if len(norms) != opts.NFuncs {
		t.Fatalf("got %d norms, want %d", len(norms), opts.NFuncs)
	}
	want := math.Sqrt(GaussianNorm2(opts.Exponent, opts.D))
	for f, n := range norms {
		if rel := math.Abs(n-want) / want; rel > 1e-5 {
			t.Fatalf("function %d: norm %v, analytic %v (rel %g)", f, n, want, rel)
		}
	}
}

func testOpts(d, nfuncs int) Options {
	return Options{
		K: 8, D: d, NFuncs: nfuncs,
		Exponent: 600, Tol: 1e-7, Seed: 7,
	}
}

func TestMRATTGParsec3D(t *testing.T) {
	opts := testOpts(3, 3)
	checkNorms(t, opts, runTTG(t, ttg.PaRSEC, 4, opts))
}

func TestMRATTGMadnessBackend2D(t *testing.T) {
	opts := testOpts(2, 4)
	checkNorms(t, opts, runTTG(t, ttg.MADNESS, 2, opts))
}

func TestMRATTG1D(t *testing.T) {
	// The same graph runs in 1-D: the streaming terminal makes the code
	// dimension independent (the paper's motivating point).
	opts := testOpts(1, 5)
	checkNorms(t, opts, runTTG(t, ttg.PaRSEC, 2, opts))
}

func TestMRANativeMadnessModelPhased(t *testing.T) {
	opts := testOpts(2, 4)
	checkNorms(t, opts, runPhased(t, 3, opts))
}

func TestMRASingleBoxFunction(t *testing.T) {
	// A very smooth Gaussian never refines: the degenerate single-leaf
	// path must still deliver the norm.
	opts := Options{K: 10, D: 2, NFuncs: 2, Exponent: 4, Tol: 1e-6, Seed: 3}
	norms := runTTG(t, ttg.PaRSEC, 2, opts)
	if len(norms) != 2 {
		t.Fatalf("got %d norms", len(norms))
	}
	// Analytic formula assumes negligible tails, not true for a=4; just
	// require positive finite values.
	for f, n := range norms {
		if n <= 0 || math.IsNaN(n) {
			t.Fatalf("function %d: norm %v", f, n)
		}
	}
}

// TestMRAVirtualTime drives the full pipeline in virtual time and checks
// the native-MADNESS barriers cost wall clock versus the streamed graph.
func TestMRAVirtualTime(t *testing.T) {
	opts := testOpts(2, 20)
	machine := cluster.Seawulf()
	run := func(phased bool, ranks int) float64 {
		rt := sim.New(sim.Config{
			Ranks: ranks, Machine: machine,
			Flavor: cluster.ParsecFlavor(),
			Cost:   CostModel(opts.K, opts.D, machine),
		})
		o := opts
		if phased {
			o.Variant = NativeMADNESSModel
		}
		var mu sync.Mutex
		norms := map[int]float64{}
		o.OnNorm = func(f int, n float64) {
			mu.Lock()
			norms[f] = n
			mu.Unlock()
		}
		total := 0.0
		rt.Run(func(p *sim.Proc) {
			g := ttg.NewGraphOn(p)
			app := Build(g, o)
			g.MakeExecutable()
			app.SeedProject()
			g.Fence()
			if phased {
				if p.Rank() == 0 {
					total += rt.LastDrainTime()
				}
				app.SeedCompressPhase()
				g.Fence()
				if p.Rank() == 0 {
					total += rt.LastDrainTime()
				}
				app.SeedReconstructPhase()
				g.Fence()
				if p.Rank() == 0 {
					total += rt.LastDrainTime()
				}
				app.SeedNormPhase()
				g.Fence()
				if p.Rank() == 0 {
					total += rt.LastDrainTime()
				}
			} else if p.Rank() == 0 {
				total = rt.LastDrainTime()
			}
		})
		checkNorms(t, o, norms)
		return total
	}
	streamed := run(false, 8)
	phased := run(true, 8)
	if streamed <= 0 || phased <= 0 {
		t.Fatalf("virtual times: streamed=%v phased=%v", streamed, phased)
	}
	if streamed >= phased {
		t.Fatalf("streamed pipeline (%v) not faster than fenced model (%v)", streamed, phased)
	}
}

// TestMRAPhased3D runs the fenced model in 3-D on the MADNESS backend,
// completing the backend-independence matrix for this app.
func TestMRAPhased3D(t *testing.T) {
	var mu sync.Mutex
	norms := map[int]float64{}
	opts := testOpts(3, 2)
	opts.Variant = NativeMADNESSModel
	opts.OnNorm = func(f int, n float64) {
		mu.Lock()
		norms[f] = n
		mu.Unlock()
	}
	ttg.Run(ttg.Config{Ranks: 2, WorkersPerRank: 2, Backend: ttg.MADNESS}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := Build(g, opts)
		g.MakeExecutable()
		app.SeedProject()
		g.Fence()
		app.SeedCompressPhase()
		g.Fence()
		app.SeedReconstructPhase()
		g.Fence()
		app.SeedNormPhase()
		g.Fence()
	})
	checkNorms(t, opts, norms)
}

// TestDefaultKeymapBalance holds the default subtree-mapping level to what
// it is for: on the benchmark's mra_stream options (eight narrow
// Gaussians, 2 ranks) the busier rank runs at most 58% of the tasks. At
// level 2 the split was 1257/607 (67%); level 3 gives 1031/833.
func TestDefaultKeymapBalance(t *testing.T) {
	opts := testOpts(3, 8)
	opts.OnNorm = func(int, float64) {}
	var mu sync.Mutex
	perRank := make([]int64, 2)
	ttg.Run(ttg.Config{Ranks: 2, WorkersPerRank: 1}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := Build(g, opts)
		g.MakeExecutable()
		app.SeedProject()
		g.Fence()
		mu.Lock()
		perRank[pc.Rank()] = pc.Stats().TasksExecuted
		mu.Unlock()
	})
	total := perRank[0] + perRank[1]
	if total != 1864 {
		t.Fatalf("ran %d tasks (%v per rank), the mra_stream configuration has 1864", total, perRank)
	}
	if busier := max(perRank[0], perRank[1]); float64(busier) > 0.58*float64(total) {
		t.Fatalf("per-rank tasks %v: the busier rank has %.0f%% of %d, want at most 58%%",
			perRank, 100*float64(busier)/float64(total), total)
	}
}

// TestMRAWorkspacesUnderContention runs 2 ranks x 4 workers so that
// several task bodies borrow workspaces from one Basis at once; run under
// -race it is the check that a workspace is never shared.
func TestMRAWorkspacesUnderContention(t *testing.T) {
	opts := testOpts(3, 4)
	checkNorms(t, opts, runTTGWorkers(t, ttg.PaRSEC, 2, 4, opts))
}

// wireRoundTrip sends v through the copy path (Enc/Dec) and the gather
// path (Gather/Scatter over the segments as a fabric would hand them on).
func wireRoundTrip[T any](t *testing.T, v T) (copied, gathered T) {
	t.Helper()
	b := serde.NewBuffer(64)
	serde.EncodeAny(b, v)
	copied = serde.DecodeAny(serde.FromBytes(b.Bytes())).(T)
	g, ok := serde.LookupCached(v).Gatherer()
	if !ok {
		t.Fatalf("%T has no gather codec", v)
	}
	hdr := serde.NewBuffer(64)
	segs, ok := g.Segments(hdr, v)
	if !ok {
		t.Fatalf("%T declined to gather", v)
	}
	gathered = g.Scatter(serde.FromBytes(hdr.Bytes()), segs).(T)
	return copied, gathered
}

func TestTreeMsgWireRoundTrip(t *testing.T) {
	block := func(seed float64) []float64 {
		v := make([]float64, 27)
		for i := range v {
			v[i] = seed + float64(i)/8
		}
		return v
	}
	for name, present := range map[string][]int{
		"all-nil children": {},
		"one child":        {5},
		"all 2^d children": {0, 1, 2, 3, 4, 5, 6, 7},
	} {
		msg := &TreeMsg{Children: make([][]float64, 8), LeafMask: 0xA5}
		for _, c := range present {
			msg.Children[c] = block(float64(c))
		}
		copied, gathered := wireRoundTrip(t, msg)
		for path, got := range map[string]*TreeMsg{"copy": copied, "gather": gathered} {
			if got.LeafMask != msg.LeafMask || len(got.Children) != len(msg.Children) {
				t.Fatalf("%s, %s path: mask %#x, %d children", name, path, got.LeafMask, len(got.Children))
			}
			for c, want := range msg.Children {
				if (got.Children[c] == nil) != (want == nil) {
					t.Fatalf("%s, %s path: child %d presence differs", name, path, c)
				}
				sameBits(t, name+", "+path+" path", got.Children[c], want)
			}
		}
		// Scatter aliases the received segment; Dec copies out.
		for _, c := range present {
			if &gathered.Children[c][0] != &msg.Children[c][0] {
				t.Fatalf("%s: gathered child %d does not alias its segment", name, c)
			}
			if &copied.Children[c][0] == &msg.Children[c][0] {
				t.Fatalf("%s: copy-decoded child %d aliases the sender", name, c)
			}
		}
	}
}

func TestDMsgWireRoundTrip(t *testing.T) {
	for name, d := range map[string][]float64{
		"empty D":  nil,
		"full D":   {1.5, -2.25, 0, math.Pi, 7, 8, 9, 10},
		"single D": {42},
	} {
		msg := &DMsg{LeafMask: 0x81, D: d}
		copied, gathered := wireRoundTrip(t, msg)
		for path, got := range map[string]*DMsg{"copy": copied, "gather": gathered} {
			if got.LeafMask != msg.LeafMask {
				t.Fatalf("%s, %s path: mask %#x", name, path, got.LeafMask)
			}
			sameBits(t, name+", "+path+" path", got.D, d)
		}
		if len(d) > 0 && &gathered.D[0] != &d[0] {
			t.Fatalf("%s: gathered D does not alias its segment", name)
		}
	}
}

// TestTreeMsgCorruptChildCount: the child count is wire input; one that
// the remaining bytes cannot hold must be refused, not allocated.
func TestTreeMsgCorruptChildCount(t *testing.T) {
	for what, count := range map[string]uint64{"truncated": 9, "over-long": 1 << 40} {
		b := serde.NewBuffer(64)
		b.PutUvarint(uint64(serde.WireTagOf(&TreeMsg{})))
		b.PutVarint(0xFF)
		b.PutUvarint(count)
		b.PutRaw(make([]byte, 8)) // eight absent children: one short of 9
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "serde: corrupt length") {
					t.Errorf("%s child count: recovered %q, want a serde: corrupt length panic", what, msg)
				}
			}()
			serde.DecodeAny(serde.FromBytes(b.Bytes()))
		}()
	}
}
