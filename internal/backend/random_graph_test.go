package backend_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/serde"
	"repro/ttg"
)

// Randomized whole-system property: a randomly generated layered task
// graph with data-dependent fan-out computes the same multiset of sink
// values on 1 rank and on 4 ranks, on both backends. This exercises
// routing, serialization, streaming reducers, and termination detection
// together under randomized structure.

type randProgram struct {
	layers   int
	width    int
	seeds    int
	fanof    func(layer, key int, v float64) []int // next-layer keys
	transmit func(layer, key int, v float64) float64
}

func newRandProgram(seed int64) *randProgram {
	rng := rand.New(rand.NewSource(seed))
	layers := 3 + rng.Intn(4)
	width := 8 + rng.Intn(24)
	mixer := rng.Int63()
	return &randProgram{
		layers: layers,
		width:  width,
		seeds:  4 + rng.Intn(8),
		fanof: func(layer, key int, v float64) []int {
			// Data-dependent fan-out of 0-3 successors, deterministic in
			// (layer, key, value).
			h := uint64(layer)*0x9E3779B97F4A7C15 ^ uint64(key)*0xC2B2AE3D27D4EB4F ^ uint64(int64(v*64)) ^ uint64(mixer)
			h ^= h >> 31
			n := int(h % 4)
			out := make([]int, n)
			for i := range out {
				h = h*0xFF51AFD7ED558CCD + 17
				out[i] = int(h>>17) % width
				if out[i] < 0 {
					out[i] = -out[i]
				}
			}
			return out
		},
		transmit: func(layer, key int, v float64) float64 {
			return v/2 + float64(layer*31+key*7)
		},
	}
}

// run executes the program and returns the per-sink-key sum of arrivals.
func (rp *randProgram) run(t *testing.T, be ttg.Backend, ranks int) map[int]float64 {
	var mu sync.Mutex
	sums := map[int]float64{}
	ttg.Run(ttg.Config{Ranks: ranks, WorkersPerRank: 2, Backend: be}, rp.graphMain(t, &mu, sums))
	return sums
}

// runEach is run with each rank its own runtime over its endpoint, as in
// a multi-process run; Run closes the endpoint after the fence.
func (rp *randProgram) runEach(t *testing.T, be ttg.Backend, eps []fabric.Endpoint) map[int]float64 {
	var mu sync.Mutex
	sums := map[int]float64{}
	main := rp.graphMain(t, &mu, sums)
	var wg sync.WaitGroup
	for _, ep := range eps {
		wg.Add(1)
		go func(ep fabric.Endpoint) {
			defer wg.Done()
			ttg.Run(ttg.Config{Fabric: ep, WorkersPerRank: 2, Backend: be}, main)
		}(ep)
	}
	wg.Wait()
	return sums
}

// expectSums fails the test unless every sink of a run summed what the
// reference run's did.
func expectSums(t *testing.T, what string, got, ref map[int]float64) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d sink keys vs reference %d", what, len(got), len(ref))
	}
	for k, v := range ref {
		if dv := got[k] - v; dv > 1e-9 || dv < -1e-9 {
			t.Fatalf("%s: sink %d = %v, reference %v", what, k, got[k], v)
		}
	}
}

// graphMain builds the per-rank SPMD main, accumulating sink values into
// the shared map — shared across rank goroutines in-process, or holding
// one rank's locally-owned sinks when each rank is its own runtime over a
// real fabric. Past its fence every rank checks that each logical message
// it counted (point-to-point, broadcast header or chunk) was exactly one
// fabric packet.
func (rp *randProgram) graphMain(t *testing.T, mu *sync.Mutex, sums map[int]float64) func(pc *ttg.Process) {
	return func(pc *ttg.Process) {
		g := pc.NewGraph()
		edges := make([]ttg.Edge[ttg.Int2, float64], rp.layers+1)
		for i := range edges {
			edges[i] = ttg.NewEdge[ttg.Int2, float64](fmt.Sprintf("layer%d", i))
		}
		for l := 0; l < rp.layers; l++ {
			l := l
			// Every node is a streaming accumulator: it may receive several
			// messages from the previous layer; the stream is closed by a
			// per-key count announced below via an exact pre-computation,
			// so instead we use unbounded streams finalized by a control
			// sweep — simplest here: reduce with a fixed "round" trick is
			// impossible for random fan-in, so nodes fire per message
			// (plain input) and sinks sum.
			ttg.MakeTT1(g, fmt.Sprintf("L%d", l),
				ttg.ReduceInput(edges[l],
					func(a, v float64) float64 { return a + v },
					func(ttg.Int2) int { return 1 }, // fire per message: stream of 1
				),
				ttg.Out(edges[l+1]),
				func(x *ttg.Ctx[ttg.Int2], v float64) {
					key := x.Key()[0]
					out := rp.transmit(l, key, v)
					for _, nk := range rp.fanof(l, key, v) {
						// Successive messages to the same (layer+1, key)
						// need distinct task IDs; fold the sender into the
						// ID's second slot.
						ttg.Send(x, edges[l+1], ttg.Int2{nk, key*rp.width + x.Key()[1]%rp.width}, out)
					}
				},
				ttg.Options[ttg.Int2]{Keymap: func(k ttg.Int2) int { return (k[0] + k[1]) % pc.Size() }},
			)
		}
		ttg.MakeTT1(g, "sink",
			ttg.ReduceInput(edges[rp.layers],
				func(a, v float64) float64 { return a + v },
				func(ttg.Int2) int { return 1 },
			), nil,
			func(x *ttg.Ctx[ttg.Int2], v float64) {
				mu.Lock()
				sums[x.Key()[0]] += v
				mu.Unlock()
			},
			ttg.Options[ttg.Int2]{Keymap: func(k ttg.Int2) int { return k[0] % pc.Size() }},
		)
		g.MakeExecutable()
		if pc.Rank() == 0 {
			for s := 0; s < rp.seeds; s++ {
				ttg.Seed(g, edges[0], ttg.Int2{s % rp.width, s}, float64(s)+0.5)
			}
		}
		g.Fence()
		if s := pc.Stats(); s.WirePackets != s.MsgsSent {
			t.Errorf("rank %d: %d wire packets for %d counted messages, want one each",
				pc.Rank(), s.WirePackets, s.MsgsSent)
		}
		// The match tables' live counters agree with their slots, and a
		// finished run leaves no shell waiting.
		if tasks, live := g.Core().PendingTasks(0); int64(len(tasks)) != live || live != 0 {
			t.Errorf("rank %d: %d shells in the table slots, %d counted live, want 0 of each",
				pc.Rank(), len(tasks), live)
		}
	}
}

// ledgerCloses snapshots the process-wide data ledgers and returns the
// check that a finished run gave back every tracked handle and recv-view.
func ledgerCloses(t *testing.T) func(what string) {
	handles, views := core.LiveTrackedHandles(), serde.LiveRecvViews()
	return func(what string) {
		t.Helper()
		if h, v := core.LiveTrackedHandles()-handles, serde.LiveRecvViews()-views; h != 0 || v != 0 {
			t.Errorf("%s: %d tracked handles and %d recv-views live after the fence", what, h, v)
		}
	}
}

// TestRandomGraphEquivalence runs each program on 4 in-process ranks under
// both presets; for seeds 1-3 a "delayed" leg runs it again over 4
// endpoints behind the seeded receive-delay decorator, one runtime each.
func TestRandomGraphEquivalence(t *testing.T) {
	const ranks = 4
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rp := newRandProgram(seed)
			ref := rp.run(t, ttg.PaRSEC, 1)
			for _, be := range []ttg.Backend{ttg.PaRSEC, ttg.MADNESS} {
				closed := ledgerCloses(t)
				got := rp.run(t, be, ranks)
				closed(fmt.Sprintf("%s/%d", be, ranks))
				expectSums(t, fmt.Sprintf("%s/%d", be, ranks), got, ref)
			}
			if seed > 3 {
				return
			}
			t.Run("delayed", func(t *testing.T) {
				for _, be := range []ttg.Backend{ttg.PaRSEC, ttg.MADNESS} {
					closed := ledgerCloses(t)
					got := rp.runEach(t, be, delayed(ranks, seed))
					closed(be.String())
					expectSums(t, be.String(), got, ref)
				}
			})
		})
	}
}
