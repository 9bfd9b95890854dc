package mra

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serde"
	"repro/ttg"
)

// This file is the flow-graph part of the benchmark. The TTG variant
// streams work through the whole pipeline — projection, compression
// (fast wavelet transform), reconstruction, norm — with no barrier
// anywhere: while one function's tree is compressing, another's is still
// projecting. The compress stage consumes its 2^d children through a
// single streaming terminal with an input reducer (Listing 3), which is
// what makes the graph independent of the dimension d. The native-MADNESS
// comparator runs the same kernels with an explicit fence after each step
// and rank-local tree storage between steps, the structure §III-E blames
// for its scalability limit.

// Variant selects the synchronization structure.
type Variant int

const (
	// TTGVariant streams all steps with no inter-step barrier.
	TTGVariant Variant = iota
	// NativeMADNESSModel fences between projection, compression,
	// reconstruction, and norm evaluation.
	NativeMADNESSModel
)

func (v Variant) String() string {
	if v == NativeMADNESSModel {
		return "native-madness"
	}
	return "ttg"
}

// TreeMsg flows up the tree during compression: a sparse set of child
// scaling-coefficient blocks plus subtree bookkeeping. The compress
// terminal's input reducer merges the 2^d contributions.
type TreeMsg struct {
	Children [][]float64 // indexed by child slot, nil when absent
	LeafMask int         // bit c set: child c is a projection leaf
}

// DMsg carries one interior node's wavelet (difference) coefficients to
// the reconstruction stage, plus which children are leaves.
type DMsg struct {
	LeafMask int
	D        []float64 // 2^d·k^d residual, child-major
}

func init() {
	serde.Register(serde.FuncCodec[*TreeMsg]{
		Enc: func(b *serde.Buffer, m *TreeMsg) {
			b.PutVarint(int64(m.LeafMask))
			b.PutUvarint(uint64(len(m.Children)))
			for _, c := range m.Children {
				b.PutBool(c != nil)
				if c != nil {
					b.PutF64s(c)
				}
			}
		},
		Dec: func(b *serde.Buffer) *TreeMsg {
			m := &TreeMsg{LeafMask: int(b.Varint())}
			m.Children = make([][]float64, b.Count(1))
			for i := range m.Children {
				if b.Bool() {
					m.Children[i] = b.F64s()
				}
			}
			return m
		},
		Size: func(m *TreeMsg) int {
			n := 16
			for _, c := range m.Children {
				n += 1 + 8*len(c)
			}
			return n
		},
		Copy: func(m *TreeMsg) *TreeMsg {
			out := &TreeMsg{LeafMask: m.LeafMask, Children: make([][]float64, len(m.Children))}
			for i, c := range m.Children {
				if c != nil {
					out.Children[i] = append([]float64(nil), c...)
				}
			}
			return out
		},
		// Above the gather floor the coefficient blocks travel by
		// reference. Header: leaf mask, child count, then per child 0 for
		// absent or its length plus one; one segment per present child.
		Gather: func(hdr *serde.Buffer, m *TreeMsg) ([]serde.Segment, bool) {
			hdr.PutVarint(int64(m.LeafMask))
			hdr.PutUvarint(uint64(len(m.Children)))
			segs := make([]serde.Segment, 0, len(m.Children))
			for _, c := range m.Children {
				if c == nil {
					hdr.PutUvarint(0)
					continue
				}
				hdr.PutUvarint(uint64(len(c)) + 1)
				segs = append(segs, serde.Segment{F64: c})
			}
			return segs, true
		},
		Scatter: func(hdr *serde.Buffer, segs []serde.Segment) *TreeMsg {
			m := &TreeMsg{LeafMask: int(hdr.Varint())}
			m.Children = make([][]float64, hdr.Count(1))
			for i := range m.Children {
				if n := int(hdr.Uvarint()) - 1; n >= 0 {
					// One segment per present child, each exactly as long as
					// the header says; a missing one fails the check too.
					m.Children[i] = serde.OneF64Segment(segs[:min(1, len(segs))], n)[:n:n]
					segs = segs[1:]
				}
			}
			if len(segs) != 0 {
				panic("mra: TreeMsg arrived with more segments than its header has children")
			}
			return m
		},
	})
	serde.Register(serde.FuncCodec[*DMsg]{
		Enc: func(b *serde.Buffer, m *DMsg) {
			b.PutVarint(int64(m.LeafMask))
			b.PutF64s(m.D)
		},
		Dec: func(b *serde.Buffer) *DMsg {
			return &DMsg{LeafMask: int(b.Varint()), D: b.F64s()}
		},
		Size: func(m *DMsg) int { return 10 + 8*len(m.D) },
		Copy: func(m *DMsg) *DMsg {
			return &DMsg{LeafMask: m.LeafMask, D: append([]float64(nil), m.D...)}
		},
		Gather: func(hdr *serde.Buffer, m *DMsg) ([]serde.Segment, bool) {
			hdr.PutUvarint(uint64(len(m.D)))
			hdr.PutVarint(int64(m.LeafMask))
			return []serde.Segment{{F64: m.D}}, true
		},
		Scatter: func(hdr *serde.Buffer, segs []serde.Segment) *DMsg {
			n := int(hdr.Uvarint())
			return &DMsg{LeafMask: int(hdr.Varint()), D: serde.OneF64Segment(segs, n)[:n:n]}
		},
	})
}

// Options configure an MRA run.
type Options struct {
	// K is the multiwavelet order (paper: 10).
	K int
	// D is the dimension (paper: 3).
	D int
	// NFuncs is the number of Gaussians.
	NFuncs int
	// Exponent is the Gaussian exponent in unit-cube coordinates. The
	// paper's workload (exponent 30,000 on [-6,6]³) corresponds to
	// PaperExponent; tests and benches use gentler values for tree depths
	// around the paper's ~6 levels at tractable cost.
	Exponent float64
	// Tol is the truncation threshold on the residual norm (paper: 1e-8).
	Tol float64
	// MaxLevel caps refinement.
	MaxLevel int
	// TargetLevel is the subtree-mapping level of the randomized key map
	// (nodes below it follow their ancestor, §III-E's overdecomposition).
	// Default 3: a handful of narrow Gaussians refine in few level-2
	// subtrees, too few to hash evenly over even two ranks.
	TargetLevel int
	// Variant selects TTG streaming or the fenced native-MADNESS model.
	Variant Variant
	// Seed drives the random centers.
	Seed int64
	// OnNorm receives each function's computed L2 norm.
	OnNorm func(f int, norm float64)
}

// PaperExponent is the paper's Gaussian exponent (30,000 on [-6,6]³)
// mapped to unit-cube coordinates.
const PaperExponent = 30000.0 * 144

// App is one rank's MRA graph.
type App struct {
	g     *ttg.Graph
	opts  Options
	basis *Basis
	funcs []Func

	projectCtl ttg.Edge[ttg.Int5, ttg.Void]
	compressUp ttg.Edge[ttg.Int5, *TreeMsg]
	reconS     ttg.Edge[ttg.Int5, []float64]
	reconD     ttg.Edge[ttg.Int5, *DMsg]
	normUp     ttg.Edge[ttg.Int5, float64]
	normIn     ttg.Edge[ttg.Int1, float64]

	// Phased-mode rank-local tree storage (the in-memory data structure
	// the native implementation completes between steps).
	mu        sync.Mutex
	leafStore map[ttg.Int5][]float64
	dStore    map[ttg.Int5]*DMsg
	rootStore map[int][]float64
	leafCount map[int]int
	normLocal map[int]float64
}

// Build assembles the graph; call SeedProject (and, in the phased model,
// the per-phase seeds between fences) after MakeExecutable.
func Build(g *ttg.Graph, opts Options) *App {
	if opts.K == 0 {
		opts.K = 10
	}
	if opts.D == 0 {
		opts.D = 3
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-8
	}
	if opts.MaxLevel == 0 {
		opts.MaxLevel = 14
	}
	if opts.TargetLevel == 0 {
		opts.TargetLevel = 3
	}
	a := &App{
		g: g, opts: opts, basis: NewBasis(opts.K, opts.D),
		leafStore: map[ttg.Int5][]float64{},
		dStore:    map[ttg.Int5]*DMsg{},
		rootStore: map[int][]float64{},
		leafCount: map[int]int{},
		normLocal: map[int]float64{},
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for f := 0; f < opts.NFuncs; f++ {
		center := make([]float64, opts.D)
		for m := range center {
			// Margin keeps the Gaussians interior so the analytic norm
			// holds (centers span the middle ~83% of the cube, i.e.
			// [-5,5] of the paper's [-6,6] box).
			center[m] = 0.083 + float64(0.834*rng.Float64())
		}
		a.funcs = append(a.funcs, Gaussian(opts.Exponent, center))
	}
	a.projectCtl = ttg.NewEdge[ttg.Int5, ttg.Void]("project_ctl")
	a.compressUp = ttg.NewEdge[ttg.Int5, *TreeMsg]("compress_up")
	a.reconS = ttg.NewEdge[ttg.Int5, []float64]("recon_s")
	a.reconD = ttg.NewEdge[ttg.Int5, *DMsg]("recon_d")
	a.normUp = ttg.NewEdge[ttg.Int5, float64]("norm_up")
	a.normIn = ttg.NewEdge[ttg.Int1, float64]("norm_in")
	a.build()
	return a
}

// keyOf assembles a tree key.
func keyOf(f, n int, l []int) ttg.Int5 {
	k := ttg.Int5{f, n}
	copy(k[2:], l)
	return k
}

// boxOf splits a key into level and box index.
func boxOf(key ttg.Int5, d int) (f, n int, l []int) {
	return key[0], key[1], key[2 : 2+d]
}

// keymap implements the paper's randomized subtree map: boxes at or below
// TargetLevel follow their level-TargetLevel ancestor; shallower boxes
// hash directly. Children therefore stay with their parent's rank once
// the tree is deep enough to spread.
func (a *App) keymap(key ttg.Int5) int {
	f, n, l := boxOf(key, a.opts.D)
	h := uint64(f)*0x9E3779B97F4A7C15 + 0x1234
	lvl := n
	var anc [3]int
	copy(anc[:], l)
	for lvl > a.opts.TargetLevel {
		for m := range anc {
			anc[m] >>= 1
		}
		lvl--
	}
	h ^= uint64(lvl) * 0xC2B2AE3D27D4EB4F
	for _, x := range anc[:len(l)] {
		h = (h ^ uint64(x)) * 0xFF51AFD7ED558CCD
	}
	h ^= h >> 33
	return int(h % uint64(a.g.Size()))
}

// parentOf returns the parent key and this box's child slot.
func (a *App) parentOf(key ttg.Int5) (ttg.Int5, int) {
	f, n, l := boxOf(key, a.opts.D)
	var pl [3]int
	c := 0
	for m := 0; m < a.opts.D; m++ {
		pl[m] = l[m] >> 1
		c |= (l[m] & 1) << uint(a.opts.D-1-m)
	}
	return keyOf(f, n-1, pl[:len(l)]), c
}

// childKey returns child c's key.
func (a *App) childKey(key ttg.Int5, c int) ttg.Int5 {
	f, n, l := boxOf(key, a.opts.D)
	var cl [3]int
	for m := 0; m < a.opts.D; m++ {
		cl[m] = 2*l[m] + childOffsetDim(c, m, a.opts.D)
	}
	return keyOf(f, n+1, cl[:len(l)])
}

func (a *App) build() {
	b := a.basis
	phased := a.opts.Variant == NativeMADNESSModel
	nc := b.Children()

	km5 := ttg.Options[ttg.Int5]{Keymap: a.keymap}

	// PROJECT: adaptive projection by recursive refinement. The residual
	// of representing the (exactly projected) children by the parent alone
	// is the local error estimate.
	ttg.MakeTT1(a.g, "Project", ttg.Input(a.projectCtl),
		ttg.Out(a.projectCtl, a.compressUp, a.normIn),
		func(x *ttg.Ctx[ttg.Int5], _ ttg.Void) {
			key := x.Key()
			f, n, l := boxOf(key, a.opts.D)
			w := b.borrow()
			sp, err2 := b.projectNode(w, a.funcs[f], n, l)
			b.scratch.Put(w)
			if math.Sqrt(err2) > a.opts.Tol && n < a.opts.MaxLevel {
				for c := 0; c < nc; c++ {
					ttg.Send(x, a.projectCtl, a.childKey(key, c), ttg.Void{})
				}
				return
			}
			// Leaf box.
			if phased {
				a.mu.Lock()
				a.leafStore[key] = sp
				a.leafCount[f]++
				a.mu.Unlock()
				return
			}
			if n == 0 {
				// Degenerate single-box tree: report the norm directly.
				ttg.SetStreamSize(x, a.normIn, ttg.Int1{f}, 1)
				ttg.Send(x, a.normIn, ttg.Int1{f}, Norm2(sp))
				return
			}
			pk, c := a.parentOf(key)
			msg := &TreeMsg{Children: make([][]float64, nc), LeafMask: 1 << uint(c)}
			msg.Children[c] = sp
			ttg.SendM(x, a.compressUp, pk, msg, ttg.Move)
		},
		km5,
	)

	// COMPRESS: the fast wavelet transform, one task per interior node.
	// The single streaming terminal absorbs all 2^d children regardless of
	// d — the Listing 3 pattern.
	// Each child message populates a disjoint Children slot, so the merge
	// commutes. Only the phased model takes the Commutative hint: its
	// reductions are fence-bounded, so parking partials for hierarchical
	// combining costs nothing, while the streamed pipeline lives on the
	// latency of individual child messages (a parked partial would hold
	// back the parent compress and serialize the sweep).
	compressIn := ttg.ReduceInput(a.compressUp,
		func(acc, v *TreeMsg) *TreeMsg {
			for c, s := range v.Children {
				if s != nil {
					acc.Children[c] = s
				}
			}
			acc.LeafMask |= v.LeafMask
			return acc
		},
		func(ttg.Int5) int { return nc },
	)
	if phased {
		compressIn = compressIn.Commutative()
	}
	ttg.MakeTT1(a.g, "Compress",
		compressIn,
		ttg.Out(a.compressUp, a.reconS, a.reconD, a.normIn),
		func(x *ttg.Ctx[ttg.Int5], msg *TreeMsg) {
			key := x.Key()
			f, n, _ := boxOf(key, a.opts.D)
			w := b.borrow()
			sp, dd := b.compressNode(w, msg.Children)
			b.scratch.Put(w)
			d := &DMsg{LeafMask: msg.LeafMask, D: dd}
			if phased {
				a.mu.Lock()
				a.dStore[key] = d
				if n == 0 {
					a.rootStore[f] = sp
				}
				a.mu.Unlock()
				if n > 0 {
					pk, c := a.parentOf(key)
					up := &TreeMsg{Children: make([][]float64, nc)}
					up.Children[c] = sp
					ttg.SendM(x, a.compressUp, pk, up, ttg.Move)
				}
				return
			}
			ttg.SendM(x, a.reconD, key, d, ttg.Move)
			if n == 0 {
				ttg.SendM(x, a.reconS, key, sp, ttg.Move)
				return
			}
			pk, c := a.parentOf(key)
			up := &TreeMsg{Children: make([][]float64, nc)}
			up.Children[c] = sp
			ttg.SendM(x, a.compressUp, pk, up, ttg.Move)
		},
		km5,
	)

	// RECONSTRUCT: the inverse transform, one task per interior node;
	// leaf coefficients feed the norm stream.
	ttg.MakeTT2(a.g, "Reconstruct",
		ttg.Input(a.reconS), ttg.Input(a.reconD),
		ttg.Out(a.reconS, a.normIn),
		func(x *ttg.Ctx[ttg.Int5], sp []float64, d *DMsg) {
			key := x.Key()
			f, _, _ := boxOf(key, a.opts.D)
			w := b.borrow()
			defer b.scratch.Put(w)
			for c := 0; c < nc; c++ {
				if d.LeafMask&(1<<uint(c)) != 0 {
					b.reconstructInto(w, w.tmp, sp, d.D, c)
					norm := Norm2(w.tmp)
					if phased {
						a.mu.Lock()
						a.normLocal[f] += norm
						a.mu.Unlock()
					} else {
						// Local contribution to this node's norm reduction.
						ttg.Send(x, a.normUp, key, norm)
					}
					continue
				}
				sc := make([]float64, len(sp))
				b.reconstructInto(w, sc, sp, d.D, c)
				ttg.SendM(x, a.reconS, a.childKey(key, c), sc, ttg.Move)
			}
		},
		km5,
	)

	// NORM-UP: tree-structured reduction of the reconstructed leaf norms
	// (one streaming task per interior node, 2^d contributions each:
	// leaf children arrive locally from Reconstruct, interior children
	// from their own NormUp). The root forwards one value per function.
	if !phased {
		ttg.MakeTT1(a.g, "NormUp",
			ttg.ReduceInput(a.normUp,
				func(acc, v float64) float64 { return acc + v },
				func(ttg.Int5) int { return nc },
			),
			ttg.Out(a.normUp, a.normIn),
			func(x *ttg.Ctx[ttg.Int5], total float64) {
				key := x.Key()
				f, n, _ := boxOf(key, a.opts.D)
				if n == 0 {
					ttg.SetStreamSize(x, a.normIn, ttg.Int1{f}, 1)
					ttg.Send(x, a.normIn, ttg.Int1{f}, total)
					return
				}
				pk, _ := a.parentOf(key)
				ttg.Send(x, a.normUp, pk, total)
			},
			km5,
		)
	}

	// NORM: per-function reduction of leaf norms; the stream length is
	// announced dynamically (by the root compress in the TTG variant, by
	// the rank count in the phased model — SetStreamSize, being
	// count-based, is compatible with the commutative combiner). The
	// phased model sums one partial per rank here, the textbook allreduce
	// shape for the binomial tree; the streamed variant sends a single
	// root value per function, where combining buys nothing.
	normIn := ttg.ReduceInput(a.normIn, func(acc, v float64) float64 { return acc + v }, nil)
	if phased {
		normIn = normIn.Commutative()
	}
	ttg.MakeTT1(a.g, "Norm",
		normIn,
		nil,
		func(x *ttg.Ctx[ttg.Int1], sum float64) {
			if a.opts.OnNorm != nil {
				a.opts.OnNorm(x.Key()[0], math.Sqrt(sum))
			}
		},
		ttg.Options[ttg.Int1]{Keymap: func(k ttg.Int1) int { return k[0] % a.g.Size() }},
	)
}

// SeedProject starts the projection of every function (roots seeded by
// their owner rank).
func (a *App) SeedProject() {
	for f := range a.funcs {
		root := keyOf(f, 0, make([]int, a.opts.D))
		if a.keymap(root) == a.g.Rank() {
			ttg.Seed(a.g, a.projectCtl, root, ttg.Void{})
		}
	}
}

// SeedCompressPhase (phased model) injects the stored projection leaves
// into the compression sweep. Call between fences.
func (a *App) SeedCompressPhase() {
	nc := a.basis.Children()
	a.mu.Lock()
	leaves := make(map[ttg.Int5][]float64, len(a.leafStore))
	for k, v := range a.leafStore {
		leaves[k] = v
	}
	a.mu.Unlock()
	for _, key := range sortedKeys5(leaves) {
		sp := leaves[key]
		f, n, _ := boxOf(key, a.opts.D)
		if n == 0 {
			// Degenerate single-box tree.
			a.mu.Lock()
			a.rootStore[f] = sp
			a.mu.Unlock()
			continue
		}
		pk, c := a.parentOf(key)
		msg := &TreeMsg{Children: make([][]float64, nc), LeafMask: 1 << uint(c)}
		msg.Children[c] = sp
		ttg.Seed(a.g, a.compressUp, pk, msg)
	}
}

// SeedReconstructPhase (phased model) injects the stored wavelet nodes
// and root coefficients.
func (a *App) SeedReconstructPhase() {
	a.mu.Lock()
	ds := make(map[ttg.Int5]*DMsg, len(a.dStore))
	for k, v := range a.dStore {
		ds[k] = v
	}
	roots := make(map[int][]float64, len(a.rootStore))
	for f, s := range a.rootStore {
		roots[f] = s
	}
	leafStore := make(map[ttg.Int5][]float64, len(a.leafStore))
	for k, v := range a.leafStore {
		leafStore[k] = v
	}
	a.mu.Unlock()
	for _, key := range sortedKeys5(ds) {
		ttg.Seed(a.g, a.reconD, key, ds[key])
	}
	for _, f := range sortedIntKeys(roots) {
		sp := roots[f]
		key := keyOf(f, 0, make([]int, a.opts.D))
		if _, isLeaf := leafStore[key]; isLeaf {
			// Single-box tree: its norm is the root's.
			a.mu.Lock()
			a.normLocal[f] += Norm2(sp)
			a.mu.Unlock()
			continue
		}
		ttg.Seed(a.g, a.reconS, key, sp)
	}
}

// sortedKeys5 returns map keys in deterministic order.
func sortedKeys5[V any](m map[ttg.Int5]V) []ttg.Int5 {
	keys := make([]ttg.Int5, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		for d := 0; d < 5; d++ {
			if keys[i][d] != keys[j][d] {
				return keys[i][d] < keys[j][d]
			}
		}
		return false
	})
	return keys
}

func sortedIntKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// SeedNormPhase (phased model) reduces the per-rank partial norms; every
// rank contributes exactly one message per function, so the stream length
// is the rank count.
func (a *App) SeedNormPhase() {
	a.mu.Lock()
	partials := make(map[int]float64, len(a.normLocal))
	for f, v := range a.normLocal {
		partials[f] = v
	}
	a.mu.Unlock()
	if a.g.Rank() == 0 {
		for f := range a.funcs {
			ttg.SeedSetStreamSize(a.g, a.normIn, ttg.Int1{f}, a.g.Size())
		}
	}
	for f := range a.funcs {
		ttg.Seed(a.g, a.normIn, ttg.Int1{f}, partials[f])
	}
}

// NumFuncs returns the function count.
func (a *App) NumFuncs() int { return len(a.funcs) }

// Basis exposes the numerical basis (benches use its cost figures).
func (a *App) Basis() *Basis { return a.basis }

// AnalyticNorm returns the analytic L2 norm of every function.
func (a *App) AnalyticNorm() float64 {
	return math.Sqrt(GaussianNorm2(a.opts.Exponent, a.opts.D))
}

// CostModel returns the virtual-time cost of each kernel: the dominant
// terms are the 2^d child projections (k^d evaluations plus d tensor
// transforms each) for Project and the two-scale transforms elsewhere.
func CostModel(k, d int, m cluster.Machine) func(t *core.Task) float64 {
	kd := math.Pow(float64(k), float64(d))
	nc := math.Exp2(float64(d))
	transform := float64(float64(d)*kd*float64(k)) * 2 // ×2 compiles to an add
	return func(t *core.Task) float64 {
		switch t.TT.Name() {
		case "Project":
			return nc * (float64(kd*30) + float64(3*transform)) / m.SmallOpRate
		case "Compress":
			return nc * 2 * transform / m.SmallOpRate
		case "Reconstruct":
			return nc * 2 * transform / m.SmallOpRate
		case "Norm":
			return kd / m.SmallOpRate
		default:
			return 0
		}
	}
}
