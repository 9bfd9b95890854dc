// Package sim is the virtual-time backend: it executes real template task
// graphs (real control flow, keymaps, streaming reducers, broadcast plans)
// over a discrete-event simulation of a cluster, charging task and message
// costs from a machine model (internal/cluster) and a runtime-flavor
// overhead profile. The figure benches use it to regenerate the paper's
// scaling experiments at up to 256 virtual nodes of 60 virtual workers.
//
// Contract with applications: payloads sent through a sim graph must be
// phantom (shape metadata only, e.g. a Tile with nil data) or treated as
// immutable after send — the simulator does not copy values across virtual
// ranks, it only charges the time real copies would take.
package sim

import (
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/sched"
	"repro/internal/serde"
	"repro/internal/trace"
)

// Config assembles a virtual cluster run.
type Config struct {
	// Ranks is the number of virtual nodes.
	Ranks int
	// WorkersPerRank overrides Machine.Workers when positive.
	WorkersPerRank int
	// Machine supplies kernel rates and network parameters.
	Machine cluster.Machine
	// Flavor supplies the runtime-system overhead profile.
	Flavor cluster.Flavor
	// Cost returns a task's compute time in seconds; nil means zero
	// compute (pure coordination graphs).
	Cost func(t *core.Task) float64
}

// Runtime is a virtual cluster executing one TTG program in virtual time.
// Only the fence's drainer touches the engine, the procs' virtual-clock
// state, the profile and the timeline; rank mains reach them through their
// Proc's effect buffer, which the drainer replays in rank order, so a run
// is the same whatever the Go scheduler does.
type Runtime struct {
	cfg   Config
	eng   *des.Engine
	procs []*Proc

	fmu       sync.Mutex
	fcond     *sync.Cond
	waiting   int
	epoch     int
	lastDrain float64

	profile  map[string]*TTStat
	timeline *Timeline
	flowSeq  uint64 // causal-span ids for timeline flow arrows
}

// New builds a virtual cluster.
func New(cfg Config) *Runtime {
	if cfg.Ranks <= 0 {
		cfg.Ranks = 1
	}
	if cfg.WorkersPerRank <= 0 {
		cfg.WorkersPerRank = cfg.Machine.Workers
		if cfg.WorkersPerRank <= 0 {
			cfg.WorkersPerRank = 1
		}
	}
	rt := &Runtime{cfg: cfg, eng: des.New(), profile: map[string]*TTStat{}}
	rt.fcond = sync.NewCond(&rt.fmu)
	rt.procs = make([]*Proc, cfg.Ranks)
	for r := range rt.procs {
		rt.procs[r] = &Proc{
			rt: rt, rank: r,
			ready:       sched.NewPriority(),
			freeWorkers: cfg.WorkersPerRank,
			buffering:   true,
		}
	}
	return rt
}

// Proc returns rank r's process context.
func (rt *Runtime) Proc(r int) *Proc { return rt.procs[r] }

// Now returns the current virtual time in seconds.
func (rt *Runtime) Now() float64 { return rt.eng.Now() }

// LastDrainTime returns the virtual duration of the most recent fence
// drain — the measured execution time of that phase.
func (rt *Runtime) LastDrainTime() float64 { return rt.lastDrain }

// TTStat aggregates one template task's virtual execution profile.
type TTStat struct {
	// Tasks is the number of instances executed.
	Tasks int64
	// Busy is the summed virtual compute time (including per-task
	// overhead and copy charges) in seconds.
	Busy float64
}

// Profile returns per-template-task execution statistics accumulated over
// all drains; the map is keyed by TT name. Useful for identifying which
// kernel dominates a configuration.
func (rt *Runtime) Profile() map[string]TTStat {
	out := make(map[string]TTStat, len(rt.profile))
	for k, v := range rt.profile {
		out[k] = *v
	}
	return out
}

func (rt *Runtime) recordProfile(name string, busy float64) {
	st := rt.statFor(name)
	st.Tasks++
	st.Busy += busy
}

// recordExtra adds copy-time to a TT's busy total without counting a task.
func (rt *Runtime) recordExtra(name string, busy float64) {
	rt.statFor(name).Busy += busy
}

func (rt *Runtime) statFor(name string) *TTStat {
	st := rt.profile[name]
	if st == nil {
		st = &TTStat{}
		rt.profile[name] = st
	}
	return st
}

// Run executes main once per rank, concurrently; mains build graphs, seed,
// and Fence (possibly repeatedly). The last rank to arrive at each fence
// drains the event queue in virtual time.
func (rt *Runtime) Run(main func(p *Proc)) {
	var wg sync.WaitGroup
	for _, p := range rt.procs {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			main(p)
		}(p)
	}
	wg.Wait()
}

func (rt *Runtime) cost(t *core.Task) float64 {
	if rt.cfg.Cost == nil {
		return 0
	}
	return rt.cfg.Cost(t)
}

// Proc is one virtual rank; it implements core.Executor.
type Proc struct {
	rt          *Runtime
	rank        int
	ready       *sched.Priority
	freeWorkers int
	nicFreeAt   float64 // outgoing link reservation
	recvFreeAt  float64 // communication-thread reservation
	tr          trace.Collector
	// effects holds the executor calls (submits, sends) this rank made
	// while buffering: from its main outside a drain, replayed in rank
	// order by the fence's drainer, and from the task body complete is
	// running, released after the body's copy-time extension so copies
	// delay consumers, not just the worker.
	effects   []func()
	buffering bool
	graph     *core.Graph
	// bound mirrors graph for concurrent readers (the doctor probes from
	// its own goroutine while rank mains may still be binding).
	bound atomic.Pointer[core.Graph]
}

// Rank implements core.Executor.
func (p *Proc) Rank() int { return p.rank }

// Size implements core.Executor.
func (p *Proc) Size() int { return len(p.rt.procs) }

// Tracer implements core.Executor.
func (p *Proc) Tracer() *trace.Collector { return &p.tr }

// Obs implements core.Executor. The virtual-time backend records its own
// Timeline in virtual time (EnableTimeline) rather than wall-clock obs
// events; both export through the same Chrome-trace writer, so traces from
// either backend family share one schema.
func (p *Proc) Obs() obs.Recorder { return nil }

// TracksData implements core.Executor.
func (p *Proc) TracksData() bool { return p.rt.cfg.Flavor.TracksData }

// Activate implements core.Executor (quiescence in virtual time is an
// empty event queue, so activity tracking is unnecessary).
func (p *Proc) Activate() {}

// Deactivate implements core.Executor.
func (p *Proc) Deactivate() {}

// BuffersReductions opts the virtual backend into buffered (wave-flushed)
// hierarchical reduction: combiner slots park until the fence drain runs
// out of events, then each idle wave releases the slots whose reduce-tree
// children have already flushed (the age gate), so partials climb the tree
// one level per wave and the owner receives the binomial-bound number of
// partials deterministically.
func (p *Proc) BuffersReductions() bool { return true }

// Bind attaches the rank's sealed graph.
func (p *Proc) Bind(g *core.Graph) {
	if !g.Sealed() {
		panic("sim: Bind before Seal")
	}
	p.graph = g
	p.bound.Store(g)
}

// LiveTarget exposes this virtual rank to the graph doctor. The simulator
// has no termination detector (quiescence is an empty event queue), so
// Active is nil; the doctor is used post-fence via Diagnose — the sim
// fence returns even when the graph is wedged, which is exactly when the
// pending shells are worth classifying.
func (p *Proc) LiveTarget() live.Target {
	return live.Target{
		Rank:  p.rank,
		Graph: p.bound.Load,
		Progress: func() live.Progress {
			return live.Progress{
				Tasks:        p.tr.TasksExecuted.Load(),
				MsgsSent:     p.tr.MsgsSent.Load(),
				MsgsReceived: p.tr.MsgsReceived.Load(),
			}
		},
	}
}

// LiveTargets builds one doctor target per virtual rank.
func (rt *Runtime) LiveTargets() []live.Target {
	out := make([]live.Target, len(rt.procs))
	for i, p := range rt.procs {
		out[i] = p.LiveTarget()
	}
	return out
}

// NewGraph builds a graph on this executor.
func (p *Proc) NewGraph() *core.Graph { return core.NewGraph(p) }

// Submit implements core.Executor: the task enters the rank's ready queue
// and dispatches onto a free virtual worker.
func (p *Proc) Submit(t *core.Task) {
	if p.buffering {
		p.effects = append(p.effects, func() { p.enqueue(t) })
		return
	}
	p.enqueue(t)
}

// SubmitBatch implements core.Executor. Each enqueue stays an
// instantaneous virtual-time event; a buffered batch takes one effect.
func (p *Proc) SubmitBatch(ts []*core.Task) {
	if len(ts) == 0 {
		return
	}
	if p.buffering {
		batch := append([]*core.Task(nil), ts...) // ts is the caller's scratch
		p.effects = append(p.effects, func() {
			for _, t := range batch {
				p.enqueue(t)
			}
		})
		return
	}
	for _, t := range ts {
		p.enqueue(t)
	}
}

func (p *Proc) enqueue(t *core.Task) {
	p.ready.Push(sched.Item{Priority: t.Priority, Value: t})
	p.dispatch()
}

// dispatch starts ready tasks on free workers. It runs on the drainer
// only.
func (p *Proc) dispatch() {
	fl := p.rt.cfg.Flavor
	for p.freeWorkers > 0 {
		it, ok := p.ready.Pop()
		if !ok {
			return
		}
		p.freeWorkers--
		t := it.Value.(*core.Task)
		d := p.rt.cost(t) + fl.TaskOverhead
		p.rt.recordProfile(t.TT.Name(), d)
		p.rt.recordSpan(t.TT.Name(), p.rank, p.rt.eng.Now(), d)
		p.rt.eng.At(d, func() { p.complete(t) })
	}
}

// complete runs the task body at its virtual completion time. Copy
// charges accrued by the body (deep copies of phantom payloads) extend
// the worker's busy period AND delay the task's outward effects — the
// submits and sends it performed — so downstream consumers feel the
// memcpy time, as they would in a real run.
func (p *Proc) complete(t *core.Task) {
	rt := p.rt
	// Execute may recycle the task (shell reuse); read identity up front.
	name := t.TT.Name()
	copied := p.tr.BytesCopied.Load()
	p.buffering = true
	t.Execute(0)
	p.buffering = false
	buf := p.effects
	p.effects = nil
	extra := p.copyTime(copied)
	if extra > 0 {
		rt.recordExtra(name, extra)
	}
	finish := func() {
		for _, fn := range buf {
			fn()
		}
		p.freeWorkers++
		p.dispatch()
	}
	if extra > 0 {
		rt.eng.At(extra, finish)
		return
	}
	finish()
}

// Deliver implements core.Executor: schedule the message through the
// virtual fabric. The value object itself is handed to the destination
// graph (phantom-payload contract); only the time is simulated.
func (p *Proc) Deliver(dest int, d core.Delivery) {
	if p.buffering {
		p.effects = append(p.effects, func() { p.deliver(dest, d) })
		return
	}
	p.deliver(dest, d)
}

// copyTime is the memcpy time of the bytes this rank's clones copied
// after its BytesCopied counter read since.
func (p *Proc) copyTime(since int64) float64 {
	return float64(p.tr.BytesCopied.Load()-since) / p.rt.cfg.Machine.CopyBandwidth
}

// splitMetaBytes is the modeled size of a splitmd phase-1 message beyond
// its routing header: wire tag, type metadata, payload size, RMA handle.
const splitMetaBytes = 64

func (p *Proc) deliver(dest int, d core.Delivery) {
	p.tr.MsgsSent.Add(1)
	// Causal span: tag the delivery with a flow id and record the send
	// point; inject records the receive point and the exporter draws the
	// arrow. Flow ids ride outside HeaderWireSize, so tracing never
	// perturbs simulated message sizes or timings.
	if p.rt.timeline != nil && d.Flow == 0 {
		p.rt.flowSeq++
		d.Flow = p.rt.flowSeq
		p.rt.timeline.flowSend(d.Flow, p.rank, p.rt.eng.Now())
	}
	pl := core.PlanSend(d, p.rt.cfg.Flavor.SendCaps)
	// Every protocol frames the routing header; the eager ones add a value
	// marker byte and the value, splitmd its metadata.
	hdr := core.HeaderWireSize(d)
	frame := hdr + 1 + pl.ValueBytes
	var sendCopy, recvCopy, land int
	switch pl.Proto {
	case core.ProtoSplit:
		// Phase 1: eager metadata. Phase 2: RMA get of the payload,
		// overlapping other traffic, no serialization copies — only the
		// snapshot a SendCopy sender needs before the deferred read.
		frame, land = hdr+splitMetaBytes, pl.Payload
		p.tr.SplitMDTransfers.Add(1)
		if pl.Snapshot {
			sendCopy = land
		}
	case core.ProtoGather:
		// The encoded header rides the eager machinery, the payload goes by
		// reference: one snapshot memcpy when the sender retains the value,
		// and the receiver decodes a view over the landed segments.
		p.tr.GatherSends.Add(1)
		p.tr.BytesZeroCopied.Add(int64(pl.Payload))
		if pl.Snapshot {
			sendCopy = frame
		}
	default:
		// Eager archive: serialize (copy), transfer, deserialize (copy).
		sendCopy, recvCopy = frame, frame
		if pl.Codec != nil {
			p.tr.CopySends.Add(1)
		}
	}
	p.tr.BytesSent.Add(int64(frame + land))
	p.transfer(p.rt.procs[dest], d, sendCopy, recvCopy, frame, land)
}

// transfer charges one message from p to q and lands d there: sendCopy
// bytes memcpy'd before frame bytes occupy p's link, one latency, the
// comm thread's per-message overhead plus recvCopy bytes memcpy'd at q;
// then, for a rendezvous, land bytes fetched over p's link with one extra
// round trip, straight into place.
func (p *Proc) transfer(q *Proc, d core.Delivery, sendCopy, recvCopy, frame, land int) {
	m := p.rt.cfg.Machine
	fl := p.rt.cfg.Flavor
	bw := fl.LinkBandwidth(m)
	eng := p.rt.eng
	now := eng.Now()
	depart := max(now, p.nicFreeAt)
	p.nicFreeAt = depart + float64(sendCopy)/m.CopyBandwidth + float64(frame)/bw
	arrive := p.nicFreeAt + m.Latency
	eng.At(arrive-now, func() {
		done := max(eng.Now(), q.recvFreeAt) + fl.MsgOverhead + float64(recvCopy)/m.CopyBandwidth
		q.recvFreeAt = done
		if land > 0 {
			start := max(done, p.nicFreeAt)
			p.nicFreeAt = start + float64(land)/bw
			done = p.nicFreeAt + 2*m.Latency
		}
		eng.At(done-eng.Now(), func() { q.inject(d, frame+land) })
	})
}

// inject lands a delivery that arrived as wireBytes on the destination
// graph, charging any copies the graph makes (multi-key fan-out) to the
// receiving comm thread.
func (q *Proc) inject(d core.Delivery, wireBytes int) {
	rt := q.rt
	if d.Flow != 0 && rt.timeline != nil {
		rt.timeline.flowRecv(d.Flow, q.rank, rt.eng.Now())
	}
	q.tr.MsgsReceived.Add(1)
	q.tr.BytesReceived.Add(int64(wireBytes))
	copied := q.tr.BytesCopied.Load()
	q.graph.Inject(d)
	if extra := q.copyTime(copied); extra > 0 {
		q.recvFreeAt = max(q.recvFreeAt, rt.eng.Now()+extra)
	}
}

// Broadcast implements core.Executor. Under a tree flavor the value is
// forwarded along a binomial tree over the destination ranks; otherwise
// the root sends point-to-point, serializing on its NIC (the bottleneck
// the optimized broadcast removes).
func (p *Proc) Broadcast(dests map[int]core.Delivery) {
	if p.buffering {
		p.effects = append(p.effects, func() { p.broadcast(dests) })
		return
	}
	p.broadcast(dests)
}

func (p *Proc) broadcast(dests map[int]core.Delivery) {
	pl := core.PlanBcast(p.rank, dests, p.rt.cfg.Flavor.SendCaps)
	if pl.Order == nil {
		for _, dst := range pl.Ranks {
			p.deliver(dst, dests[dst])
		}
		return
	}
	// Tree broadcast: one flow per destination, all rooted at the send
	// point, so the trace shows the root fanning out to every receiver
	// even though the bytes travel hop-by-hop.
	if p.rt.timeline != nil {
		now := p.rt.eng.Now()
		for _, dst := range pl.Ranks {
			d := dests[dst]
			if d.Flow == 0 {
				p.rt.flowSeq++
				d.Flow = p.rt.flowSeq
				p.rt.timeline.flowSend(d.Flow, p.rank, now)
				dests[dst] = d
			}
		}
	}
	// What crosses each tree edge: every destination's rank and routing
	// header, plus the value once.
	total := pl.Value.ValueBytes
	for _, dst := range pl.Ranks {
		total += 2*serde.VarintLen(int64(dst)) + core.HeaderWireSize(dests[dst])
	}
	p.forwardBcast(pl, dests, total, true)
}

// forwardBcast sends the broadcast packet to this rank's tree children;
// each child delivers its own part and forwards further. Like
// point-to-point transfers, hops of a rendezvous-sized value are costed
// one-sided: bandwidth and an extra latency but no serialization copies
// (the paper's RMA hardware; the engine runs no tree, and pushes each
// destination its own copy — DESIGN.md §7).
func (p *Proc) forwardBcast(pl core.BcastPlan, dests map[int]core.Delivery, total int, isRoot bool) {
	m := p.rt.cfg.Machine
	fl := p.rt.cfg.Flavor
	bw := fl.LinkBandwidth(m)
	eng := p.rt.eng
	oneSided := pl.Value.Proto == core.ProtoSplit
	for _, child := range collective.Fanout(pl.Order, p.rank) {
		q := p.rt.procs[child]
		p.tr.MsgsSent.Add(1)
		p.tr.BytesSent.Add(int64(total))
		if !isRoot {
			p.tr.BcastsForwarded.Add(1)
		}
		depart := max(eng.Now(), p.nicFreeAt)
		ser := 0.0
		if isRoot && !oneSided {
			ser = float64(total) / m.CopyBandwidth // serialize once at the root
		}
		p.nicFreeAt = depart + ser + float64(total)/bw
		arrive := p.nicFreeAt + m.Latency
		if oneSided {
			arrive += m.Latency // the RMA round trip
		}
		eng.At(arrive-eng.Now(), func() {
			procStart := max(eng.Now(), q.recvFreeAt)
			procEnd := procStart + fl.MsgOverhead
			if !oneSided {
				procEnd += float64(total) / m.CopyBandwidth
			}
			q.recvFreeAt = procEnd
			eng.At(procEnd-eng.Now(), func() {
				// Forward first (overlap), then deliver the local part:
				// every non-root participant is a destination.
				q.forwardBcast(pl, dests, total, false)
				q.inject(dests[q.rank], total)
			})
		})
	}
}

// Fence implements core.Executor: a barrier across rank mains; the last
// arriver replays every rank's buffered effects in rank order, drains the
// event queue in virtual time and releases everyone.
func (p *Proc) Fence() {
	rt := p.rt
	rt.fmu.Lock()
	gen := rt.epoch
	rt.waiting++
	if rt.waiting == len(rt.procs) {
		rt.waiting = 0
		for _, q := range rt.procs {
			q.buffering = false
		}
		for _, q := range rt.procs {
			for _, fn := range q.effects {
				fn()
			}
			q.effects = nil
		}
		start := rt.eng.Now()
		rt.eng.Run()
		// Idle waves: the event queue is dry, so release combiner slots
		// whose reduce-tree children have flushed (core.FlushReductions'
		// age gate) and drain the traffic they generate; repeat until no
		// parked partials remain. Procs sweep in rank order and each
		// flushes its slots in creation order, keeping virtual time
		// deterministic.
		for {
			swept := 0
			for _, q := range rt.procs {
				if g := q.bound.Load(); g != nil {
					swept += g.FlushReductions(true)
				}
			}
			if swept == 0 {
				break
			}
			rt.eng.Run()
		}
		rt.lastDrain = rt.eng.Now() - start
		for _, q := range rt.procs {
			q.buffering = true
		}
		rt.epoch++
		rt.fcond.Broadcast()
		rt.fmu.Unlock()
		return
	}
	for rt.epoch == gen {
		rt.fcond.Wait()
	}
	rt.fmu.Unlock()
}
