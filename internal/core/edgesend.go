package core

import (
	"repro/internal/obs"
	"repro/internal/serde"
)

// Edge-addressed send operations, the one way a task body sends (Fig.
// 2a–c). Routing in TTG needs only the edge: its consumer terminals define
// the destinations.

// SendEdge emits value for key on edge e.
func (c *TaskContext) SendEdge(e *Edge, key Key, value any, mode SendMode) {
	kb := [1]Key{key}
	c.BroadcastEdge(e, kb[:], value, mode)
}

// BroadcastEdge emits one value for several task IDs on edge e.
func (c *TaskContext) BroadcastEdge(e *Edge, keys []Key, value any, mode SendMode) {
	g := c.task.TT.g
	c.task.noteSend(value)
	// Stack-backed containers: routeEdges does not retain them.
	eb := [1]*Edge{e}
	ksb := [1][]Key{keys}
	g.routeEdges(c.worker, eb[:], ksb[:], value, mode)
}

// BroadcastEdges emits one value to several edges, each with its own task
// IDs, crossing each network link at most once (Fig. 2c).
func (c *TaskContext) BroadcastEdges(edges []*Edge, keys [][]Key, value any, mode SendMode) {
	if len(edges) != len(keys) {
		panic("core: BroadcastEdges edges/keys length mismatch")
	}
	g := c.task.TT.g
	c.task.noteSend(value)
	g.routeEdges(c.worker, edges, keys, value, mode)
}

// FinalizeEdge closes streaming terminals fed by e for the given task ID.
func (c *TaskContext) FinalizeEdge(e *Edge, key Key) {
	c.task.TT.g.controlEdge(e, c.worker, key, CtrlFinalize, 0)
}

// SetStreamSizeEdge announces the expected stream length on terminals fed
// by e for the given task ID.
func (c *TaskContext) SetStreamSizeEdge(e *Edge, key Key, n int) {
	c.task.TT.g.controlEdge(e, c.worker, key, CtrlSetSize, n)
}

// remoteDest is one destination rank's accumulated terminal targets during
// routing. The per-send working set lives in a stack-backed small-vector:
// almost every send resolves to at most a handful of ranks (a SUMMA panel
// send touches one; even wide broadcasts rarely exceed the tree fan-out),
// so the bookkeeping map the seed design allocated per send is reserved
// for the >4-rank spill case.
type remoteDest struct {
	rank    int
	targets []TermTarget
}

// localTarget is one (consumer, task ID) pair of a send that lands here.
type localTarget struct {
	c   consumer
	key Key
}

// stackLandings is how many local targets a send or an arrival lists on
// the stack; past it they go in a fanout.
const stackLandings = 8

// fanout is the recycled bookkeeping of one wide landing (Graph.fanouts):
// its local targets past the stack buffer, and the tasks it made ready.
type fanout struct {
	locals []localTarget
	ready  []*Task
}

// getFanout takes a fanout whose slices hold n entries without growing.
func (g *Graph) getFanout(n int) *fanout {
	f, _ := g.fanouts.Get().(*fanout)
	if f == nil || cap(f.locals) < n {
		f = &fanout{make([]localTarget, 0, n), make([]*Task, 0, n)}
	}
	return f
}

// routeEdges sends value to the consumers of each edges[i] for the task IDs
// keys[i]: each remote rank gets one delivery for all of its targets, then
// the local targets land here (land), and mode sets the copy semantics.
func (g *Graph) routeEdges(worker int, edges []*Edge, keys [][]Key, value any, mode SendMode) {
	// Small sends (the overwhelmingly common case: one edge, one key, one
	// or two consumers) must not allocate for bookkeeping: the local-target
	// list starts on a stack buffer and remote destinations collect into a
	// stack-backed small-vector, spilling to a map only past 4 ranks. A
	// send that may outgrow the buffer takes a fanout sized to its upper
	// bound up front, so no append reallocates. (Never store locals back
	// into fo: that moves localBuf, 256 B of every send, to the heap.)
	var localBuf [stackLandings]localTarget
	locals := localBuf[:0]
	var fo *fanout
	bound := 0
	for i, e := range edges {
		bound += len(e.consumers) * len(keys[i])
	}
	if bound > len(localBuf) {
		fo = g.getFanout(bound)
		locals = fo.locals[:0]
	}
	var destBuf [4]remoteDest
	dests := destBuf[:0]
	var spill map[int]int // rank → index in dests once it outgrew destBuf
	me := g.exec.Rank()

	// add appends key k for consumer cons to rank dst's target list,
	// growing the last TermTarget when it already addresses cons (keys of
	// one consumer arrive consecutively).
	add := func(cons consumer, dst int, k Key) {
		idx := -1
		if spill != nil {
			if j, ok := spill[dst]; ok {
				idx = j
			}
		} else {
			for j := range dests {
				if dests[j].rank == dst {
					idx = j
					break
				}
			}
		}
		if idx < 0 {
			idx = len(dests)
			dests = append(dests, remoteDest{rank: dst})
			if spill == nil && len(dests) > len(destBuf) {
				// Outgrew the stack buffer: index ranks from here on.
				spill = make(map[int]int, 2*len(dests))
				for j := range dests {
					spill[dests[j].rank] = j
				}
			} else if spill != nil {
				spill[dst] = idx
			}
		}
		d := &dests[idx]
		if n := len(d.targets); n > 0 && d.targets[n-1].TT == cons.tt.id && d.targets[n-1].Term == cons.term {
			d.targets[n-1].Keys = append(d.targets[n-1].Keys, k)
			return
		}
		d.targets = append(d.targets, TermTarget{TT: cons.tt.id, Term: cons.term, Keys: []Key{k}})
	}

	for i, e := range edges {
		for _, cons := range e.consumers {
			// A commutative streaming terminal absorbs every contribution —
			// remote-bound ones included — into the local combiner
			// (reduce.go); the partial climbs the reduce tree later.
			comb := g.combines(cons.tt, cons.term)
			for _, k := range keys[i] {
				if comb {
					locals = append(locals, localTarget{c: cons, key: g.canon(k)})
					continue
				}
				dst := cons.tt.keymap(k)
				if dst == me {
					locals = append(locals, localTarget{c: cons, key: g.canon(k)})
					continue
				}
				add(cons, dst, k)
			}
		}
	}

	// The edge's devirtualized codec is resolved only for a remote delivery
	// (or, in cloneFor, a local deep copy): purely-local borrow/move sends
	// never touch the registry, so unregistered local-only types keep
	// working. All edges of one send carry the same value, so the first
	// edge's cache serves the whole call.
	var cc *serde.Cached
	if len(dests) > 0 {
		cc = edges[0].codecFor(value)
	}
	if len(dests) == 1 {
		d := Delivery{Targets: dests[0].targets, Value: value, Mode: mode, Codec: cc,
			// A moved value with no local consumers and one remote
			// destination is the transport's alone: it may ship payload
			// segments by reference without a snapshot.
			OwnsValue: mode == SendMove && len(locals) == 0}
		if o := g.obs; o != nil {
			o.Record(obs.Event{Kind: obs.EvSend, Worker: int32(worker), TT: -1})
			d.Flow = g.nextFlow()
			o.Record(obs.Event{Kind: obs.EvFlowEmit, Worker: int32(worker), TT: -1,
				Flow: d.Flow, Bytes: int64(dests[0].rank)})
		}
		g.exec.Deliver(dests[0].rank, d)
	} else if len(dests) > 1 {
		o := g.obs
		if o != nil {
			o.Record(obs.Event{Kind: obs.EvBroadcast, Worker: int32(worker), TT: -1,
				Bytes: int64(len(dests))})
		}
		bcast := make(map[int]Delivery, len(dests))
		for j := range dests {
			d := Delivery{Targets: dests[j].targets, Value: value, Mode: mode, Codec: cc}
			if o != nil {
				// One flow id per destination: each arrow pairs a single emit
				// with the single inject on its receiving rank, even when the
				// transport relays the value along a broadcast tree.
				d.Flow = g.nextFlow()
				o.Record(obs.Event{Kind: obs.EvFlowEmit, Worker: int32(worker), TT: -1,
					Flow: d.Flow, Bytes: int64(dests[j].rank)})
			}
			bcast[dests[j].rank] = d
		}
		g.exec.Broadcast(bcast)
	}

	// A Move hands the object to the runtime, and only the local consumers
	// hold it when no remote target does; a Copy or Borrow leaves it the
	// sender's.
	own, reclaim := ownSender, false
	if mode == SendMove {
		own, reclaim = ownRuntime, len(dests) == 0
	}
	g.land(locals, value, mode, own, reclaim, worker, fo)
}
