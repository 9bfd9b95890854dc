// Package backend implements the shared distributed-runtime engine under
// the PaRSEC-model and MADNESS-model backends. Each rank of the virtual
// cluster gets a worker pool, a receive handler serving active messages on
// whichever goroutine lands them (a socket reader, or in-process the
// sending worker — there is no communication thread), a termination
// detector, and a transport speaking the wire protocols of §II: eager
// whole-object (archive) messages, by-reference gather messages (metadata
// framed, payload landed in place — what the split-metadata protocol
// becomes on a fabric without RMA), and broadcasts deduplicated per rank
// and sent point to point. The two named backends are Options presets of
// this engine (PaRSEC and MADNESS below), just as the C++ TTG backends
// configure shared machinery over their runtimes.
package backend

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/serde"
	"repro/internal/simnet"
	"repro/internal/termdet"
	"repro/internal/trace"
)

// Wire kinds on the fabric. Kinds at or above fabric.KindReserved belong
// to the transport itself (netfab's bootstrap hello) and never reach the
// receive handler.
const (
	kCtrl       uint8 = iota + 1 // termination-detection control
	kData                        // eager data: header + inline archive value
	kGatherData                  // zero-copy data: header + gather header, payload as by-reference segments
)

// Options configure the engine; PaRSEC and MADNESS return the two named
// presets, and New is the only constructor.
type Options struct {
	// Name tags the backend in diagnostics ("parsec", "madness").
	Name string
	// WorkersPerRank sizes each rank's pool. Zero means NumCPU/ranks,
	// minimum 1 (the evaluation pinned 60 worker threads per node).
	WorkersPerRank int
	// Policy is the task queue discipline, fixed by the preset.
	Policy sched.Policy
	// TracksData and GatherThreshold are the two core.SendCaps fields the
	// engine honours (see there); New builds the caps core.PlanSend and
	// PlanBcast decide by from them, with SplitMD and TreeBroadcast off:
	// no fabric under the engine can fetch remote memory, and a push to
	// each broadcast destination by reference costs no tree hop's encode
	// and decode.
	TracksData      bool
	GatherThreshold int
	// Fabric, when non-nil, replaces the in-process simnet cluster with an
	// externally bootstrapped transport endpoint (internal/netfab): the
	// runtime then hosts exactly ONE rank — Fabric.Rank() — of a cluster
	// whose other ranks are separate OS processes, and the ranks argument
	// to New is ignored in favor of Fabric.Size(). Shutdown closes it.
	Fabric fabric.Endpoint
	// Obs, when non-nil, enables structured observability: every rank
	// records lifecycle events and metrics into the session. Nil costs one
	// branch per instrumentation point.
	Obs *obs.Session
}

// PaRSEC is the preset modeling the paper's PaRSEC backend (§II-D): the
// runtime owns data flowing through the graph (so const-ref sends avoid
// copies), large payloads cross by reference, and scheduling is banded
// work stealing that honors priority maps.
func PaRSEC() Options { return preset(sched.PolicyStealPrio, cluster.ParsecFlavor()) }

// MADNESS is the preset modeling the paper's MADNESS backend (§II-D): one
// FIFO thread pool per process, active messages served where they land.
// Data always travels as whole serialized objects (no splitmd) and the
// runtime does not track data lifetimes, so const-ref sends still copy —
// the copy and communication overheads the paper observes for
// TTG-over-MADNESS in the MRA benchmark follow from these two properties.
func MADNESS() Options { return preset(sched.PolicyFIFO, cluster.MadnessFlavor()) }

// preset reads TracksData and GatherThreshold from the sim flavor of the
// same name, so the engine and the cost model share each preset.
func preset(policy sched.Policy, fl cluster.Flavor) Options {
	return Options{Name: fl.Name, Policy: policy, TracksData: fl.TracksData, GatherThreshold: fl.GatherThreshold}
}

func (o *Options) fill(ranks int) {
	if o.WorkersPerRank <= 0 {
		o.WorkersPerRank = runtime.NumCPU() / ranks
		if o.WorkersPerRank < 1 {
			o.WorkersPerRank = 1
		}
	}
}

// Runtime owns the local share of a cluster executing one TTG program: in
// the default (simnet) mode every rank of an in-process cluster, in fabric
// mode the single local rank of a multi-process cluster.
type Runtime struct {
	opts  Options
	caps  core.SendCaps // what core.PlanSend and PlanBcast decide by
	size  int           // cluster size (== len(procs) in simnet mode)
	procs []*Proc       // local ranks only, in rank order
}

// New builds a runtime with the given number of ranks, or — when
// opts.Fabric is set — the single-local-rank runtime for that endpoint's
// rank of a multi-process cluster (ranks is then ignored).
func New(ranks int, opts Options) *Runtime {
	var eps []fabric.Endpoint
	if opts.Fabric != nil {
		eps = []fabric.Endpoint{opts.Fabric}
	} else {
		for _, ep := range simnet.New(ranks) {
			eps = append(eps, ep)
		}
	}
	opts.fill(eps[0].Size())
	caps := core.SendCaps{TracksData: opts.TracksData, GatherThreshold: opts.GatherThreshold}
	rt := &Runtime{opts: opts, caps: caps, size: eps[0].Size()}
	for _, ep := range eps {
		rt.procs = append(rt.procs, newProc(rt, ep))
	}
	for _, p := range rt.procs {
		p.start()
	}
	return rt
}

// Options returns the engine configuration (read-only).
func (rt *Runtime) Options() Options { return rt.opts }

// Proc returns rank r's process context. In fabric mode only the local
// rank is hosted here; asking for a remote rank panics.
func (rt *Runtime) Proc(r int) *Proc {
	if i := r - rt.procs[0].rank; i >= 0 && i < len(rt.procs) {
		return rt.procs[i]
	}
	panic(fmt.Sprintf("backend: rank %d is not hosted by this process", r))
}

// Ranks returns the cluster size (across all processes in fabric mode).
func (rt *Runtime) Ranks() int { return rt.size }

// Run executes main once per rank, concurrently (the SPMD model). Each
// main must build its graph, Bind it, inject seeds, and Fence before
// returning. Run shuts the runtime down afterwards.
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
	rt.Shutdown()
}

// Shutdown stops pools and closes every local rank's endpoint; no receive
// handler is running when it returns. Idempotent; called by Run.
func (rt *Runtime) Shutdown() {
	for _, p := range rt.procs {
		p.pool.Stop()
	}
	for _, p := range rt.procs {
		p.ep.Close()
	}
}

// Proc is one rank's runtime context; it implements core.Executor.
type Proc struct {
	rt       *Runtime
	rank     int
	ep       fabric.Endpoint
	det      *termdet.Detector
	pool     *sched.Pool
	batches  [][]sched.Item // SubmitBatch's per-worker item scratch
	tr       trace.Collector
	graph    *core.Graph
	ready    chan struct{}
	bindOnce sync.Once

	// rec is the rank's observability recorder (nil when disabled); the
	// histogram handle is resolved once to keep the send path lock-free.
	rec      *obs.Rank
	msgBytes *obs.Histogram
}

func newProc(rt *Runtime, ep fabric.Endpoint) *Proc {
	rank := ep.Rank()
	p := &Proc{rt: rt, rank: rank, ep: ep, ready: make(chan struct{})}
	if rt.opts.Obs != nil {
		p.rec = rt.opts.Obs.Rank(rank)
		m := p.rec.Metrics()
		p.msgBytes = m.Histogram(obs.HistMsgBytes)
	}
	p.det = termdet.New(rank, rt.Ranks(), &p.tr.MsgsSent, &p.tr.MsgsReceived, func(dst int, data []byte) {
		p.ep.Relay(dst, kCtrl, data, nil)
	})
	p.pool = sched.NewPool(rt.opts.WorkersPerRank, rt.opts.Policy, func(w int, it sched.Item) {
		it.Value.(*core.Task).Execute(w)
	})
	p.batches = make([][]sched.Item, p.pool.Workers())
	// One TaskCells copy per worker, before anything can count or read.
	p.tr.SizeWorkers(p.pool.Workers())
	if p.rec != nil {
		p.pool.Observe(p.rec)
		// The registry counts nothing itself: whenever it snapshots — a
		// scrape may come while the run is still being set up — it reads
		// this rank's counters, by name, where they are kept.
		p.rec.Metrics().ReadCounters(func(emit func(string, int64)) { p.Stats().Each(emit) })
		// A panicking task body must not take the in-flight trace down with
		// the process: flush the session's Chrome trace (once, cluster-wide)
		// before the panic resumes.
		session := rt.opts.Obs
		p.pool.OnPanic(func(w int, r any) {
			live.CrashDump(session, nil, fmt.Sprintf("rank %d worker %d panic: %v", rank, w, r))
		})
	}
	// Parked reduction partials belong to no single task, so they drain
	// when the scheduler quiesces; otherwise the termination detector
	// would wait on them forever.
	p.pool.OnIdle(p.drainReductions)
	return p
}

// drainReductions folds out every parked combiner slot; the partials that
// produces are sent as they are produced.
func (p *Proc) drainReductions() {
	if g := p.boundGraph(); g != nil {
		g.FlushReductions(false)
	}
}

// start launches the rank's workers and installs its receive handler.
func (p *Proc) start() {
	p.pool.Start()
	p.ep.Start(p.handle)
}

// Rank implements core.Executor.
func (p *Proc) Rank() int { return p.rank }

// Size implements core.Executor.
func (p *Proc) Size() int { return p.rt.Ranks() }

// Workers returns the pool width.
func (p *Proc) Workers() int { return p.pool.Workers() }

// Tracer implements core.Executor.
func (p *Proc) Tracer() *trace.Collector { return &p.tr }

// Stats returns the rank's counters: the collector's snapshot with the
// scheduler's per-worker counts, which only the pool keeps, folded in.
func (p *Proc) Stats() trace.Snapshot {
	s, ps := p.tr.Snapshot(), p.pool.Stats()
	s.TasksStolen, s.StealAttempts = ps.StealHits, ps.StealAttempts
	s.InlineRuns, s.Parks, s.Wakes = ps.InlineRuns, ps.Parks, ps.Wakes
	return s
}

// Obs implements core.Executor; it returns a nil interface when
// observation is disabled so callers' nil checks stay a single branch.
func (p *Proc) Obs() obs.Recorder {
	if p.rec == nil {
		return nil
	}
	return p.rec
}

// TracksData implements core.Executor.
func (p *Proc) TracksData() bool { return p.rt.opts.TracksData }

// Activate implements core.Executor.
func (p *Proc) Activate() { p.det.Activate() }

// Deactivate implements core.Executor.
func (p *Proc) Deactivate() { p.det.Deactivate() }

// Fence implements core.Executor: collective wait for global quiescence.
func (p *Proc) Fence() {
	// Seeds folded on the main thread may have parked combiner slots
	// without ever waking the pool; drain them before counting the fence.
	p.drainReductions()
	if p.rec == nil {
		p.det.Fence()
		return
	}
	start := p.rec.Now()
	p.det.Fence()
	p.rec.Record(obs.Event{Kind: obs.EvFence, Worker: -1, TT: -1,
		Dur: p.rec.Now() - start, Name: "fence"})
}

// Bind attaches the rank's sealed graph; remote deliveries are held until
// the graph is bound. Must be called exactly once per Run.
func (p *Proc) Bind(g *core.Graph) {
	if !g.Sealed() {
		panic("backend: Bind before Seal")
	}
	bound := false
	p.bindOnce.Do(func() {
		p.graph = g
		close(p.ready)
		bound = true
	})
	if !bound {
		panic("backend: graph already bound")
	}
}

// NewGraph is a convenience building a graph on this executor.
func (p *Proc) NewGraph() *core.Graph { return core.NewGraph(p) }

// Submit implements core.Executor.
func (p *Proc) Submit(t *core.Task) {
	it := sched.Item{Priority: t.Priority, Value: t}
	if t.Origin >= 0 {
		p.pool.SubmitLocal(t.Origin, it)
	} else {
		p.pool.Submit(it)
	}
}

// SubmitBatch implements core.Executor: a fan-out of tasks reaches the
// scheduler under one queue synchronization. When every task shares the
// discovering worker (the common case — one body sent to N successors),
// the whole batch lands on that worker's deque in a single push, built in
// that worker's scratch: the pool copies what it keeps, and only the
// worker itself submits with its index as origin.
func (p *Proc) SubmitBatch(ts []*core.Task) {
	if len(ts) == 0 {
		return
	}
	origin := ts[0].Origin
	for _, t := range ts {
		if t.Origin != origin {
			origin = -1
			break
		}
	}
	local := origin >= 0 && origin < len(p.batches)
	var items []sched.Item
	if local {
		items = p.batches[origin][:0]
	}
	for _, t := range ts {
		items = append(items, sched.Item{Priority: t.Priority, Value: t})
	}
	if !local {
		p.pool.SubmitBatch(items)
		return
	}
	p.pool.SubmitLocalBatch(origin, items)
	clear(items)
	p.batches[origin] = items[:0]
}

// Broadcast implements core.Executor: one Deliver per destination, in
// ascending rank order. The per-rank dedup happened in core, and the
// engine's caps have no tree: each destination gets its own push.
func (p *Proc) Broadcast(dests map[int]core.Delivery) {
	for _, dst := range core.PlanBcast(p.rank, dests, p.rt.caps).Ranks {
		p.Deliver(dst, dests[dst])
	}
}

// Deliver implements core.Executor: one delivery to one remote rank, over
// the protocol core.PlanSend picked. Core lands local values itself, so a
// delivery addressed to this rank breaks the Executor contract and panics.
func (p *Proc) Deliver(dest int, d core.Delivery) {
	if dest == p.rank {
		panic(fmt.Sprintf("backend: Deliver to its own rank %d: core.Executor.Deliver never addresses the local rank", dest))
	}
	pl := core.PlanSend(d, p.rt.caps)
	switch {
	case pl.Proto == core.ProtoGather && p.deliverGather(dest, d, pl):
		// Shipped; a codec that declines this value leaves it to the copy path.
	default:
		p.deliverCopy(dest, d, pl)
	}
}

// deliverCopy ships d as one eager frame: header, then the copy-encoded
// value if the plan has one.
func (p *Proc) deliverCopy(dest int, d core.Delivery, pl core.SendPlan) {
	b := serde.GetBuffer(256)
	core.EncodeHeader(b, d)
	b.PutBool(pl.Codec != nil)
	if pl.Codec != nil {
		pl.Codec.EncodeAny(b, d.Value)
		p.tr.CopySends.Add(1)
	}
	p.send(dest, kData, b.Detach(), nil, d.Control == core.CtrlReduce)
}

// deliverGather ships d over the zero-copy path: the delivery header and
// the codec's small gather header travel framed, the payload travels as
// by-reference segments the fabric never copies. Returns false — leaving
// no trace on the wire or in the counters — when the codec declines this
// value (e.g. phantom tiles), in which case the caller copy-encodes.
//
// Alias safety: when the plan asks for a snapshot (the value is not the
// transport's own), the segments are copied into pooled memory first — one
// memcpy, still cheaper than the encode+decode pair it replaces — so the
// sender may keep mutating its copy.
func (p *Proc) deliverGather(dest int, d core.Delivery, pl core.SendPlan) bool {
	g, _ := pl.Codec.Gatherer()
	hdr := serde.GetBuffer(64)
	segs, ok := g.Segments(hdr, d.Value)
	if !ok {
		hdr.Release()
		return false
	}
	if pl.Snapshot {
		for i := range segs {
			if segs[i].F64 != nil {
				segs[i].F64 = pool.CloneFloat64s(segs[i].F64)
			} else {
				segs[i].B = pool.CloneBytes(segs[i].B)
			}
		}
	}
	b := serde.GetBuffer(256)
	core.EncodeHeader(b, d)
	b.PutUvarint(uint64(pl.Codec.Tag()))
	b.PutBytes(hdr.Bytes())
	b.PutUvarint(uint64(len(segs)))
	hdr.Release()
	p.tr.GatherSends.Add(1)
	p.tr.BytesZeroCopied.Add(int64(serde.SegmentBytes(segs)))
	p.send(dest, kGatherData, b.Detach(), segs, d.Control == core.CtrlReduce)
	return true
}

// send puts one counted logical message on the fabric as one packet:
// framed bytes plus, for gather messages, by-reference payload segments.
// Nothing is held back for batching — the message is the fabric's when
// this returns, and a network fabric merges frames queued behind an
// in-flight write by itself. Termination detection, the logical-message
// stats and the wire stats are all charged here, at the full size: a
// zero-copy payload occupies the link exactly like its bytes. A relay (a
// reduce-tree partial) goes out through Relay, which never parks on the
// fabric's in-flight bound.
func (p *Proc) send(dest int, kind uint8, data []byte, segs []serde.Segment, relay bool) {
	n := int64(len(data) + serde.SegmentBytes(segs))
	p.tr.MsgsSent.Add(1) // before the message leaves: the detector reads it
	p.tr.WirePackets.Add(1)
	p.tr.BytesSent.Add(n)
	if p.rec != nil {
		p.rec.Record(obs.Event{Kind: obs.EvMsgEnqueue, Worker: -1, TT: -1, Bytes: n})
		p.msgBytes.Observe(n)
	}
	if relay {
		p.ep.Relay(dest, kind, data, segs)
	} else {
		p.ep.SendSegs(dest, kind, data, segs)
	}
}

// handle is the rank's receive handler (the MADNESS model's AM server,
// PaRSEC's communication engine), called by the fabric on the goroutine
// that lands each packet.
func (p *Proc) handle(pkt fabric.Packet) {
	switch pkt.Kind {
	case kCtrl:
		p.det.HandleControl(pkt.Data)
	case kData, kGatherData:
		p.recvMsg(pkt)
	default:
		panic(fmt.Sprintf("backend: unknown packet kind %d", pkt.Kind))
	}
}

// recvMsg handles one counted message: the receive preamble every kind
// shares, then the kind's own decode and injection.
func (p *Proc) recvMsg(pkt fabric.Packet) {
	<-p.ready
	p.det.Activate()
	p.tr.MsgsReceived.Add(1) // after Activate: the detector reads it
	n := pkt.WireLen()
	p.tr.BytesReceived.Add(int64(n))
	p.recordDeliver(n)
	switch pkt.Kind {
	case kData:
		p.graph.Inject(decodeData(pkt))
		// Decoding copies out of the packet, so the wire buffer is dead
		// here; donate it to the encode pool.
		serde.Recycle(pkt.Data)
	case kGatherData:
		p.graph.Inject(p.decodeGather(pkt))
		// Only the framed header lived in the wire buffer — the payload
		// segments now belong to the scattered value.
		serde.Recycle(pkt.Data)
	}
	p.det.Deactivate()
}

// decodeData reads one eager message: the delivery header, then the value
// when there is one. Every length in it is the sender's claim; whichever
// check refuses one, in the header, the buffer or the value's codec, the
// panic names the packet.
func decodeData(pkt fabric.Packet) (d core.Delivery) {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("backend: malformed kData packet from rank %d: %v", pkt.Src, r))
		}
	}()
	b := serde.FromBytes(pkt.Data)
	d = core.DecodeHeader(b)
	if b.Bool() {
		d.Value = serde.DecodeAny(b)
		// Freshly deserialized: the runtime owns the object and may
		// reclaim pooled payloads once the last consumer is done.
		d.Exclusive = true
	}
	return d
}

// decodeGather reads one gather message (delivery header, codec tag,
// gather header, segment count) whose payload is pkt.Segs. The scattered
// value is decoded as a view: it owns — and typically aliases — the
// segment memory, so no payload copy happens here. The gather header is
// consumed synchronously (codecs must not retain it), so the caller may
// recycle the wire buffer afterwards.
//
// This path lands every by-reference payload byte, and each length in it
// is the sender's claim: whichever check refuses one — here, in the
// buffer, or in the codec's Scatter — the panic names the packet.
func (p *Proc) decodeGather(pkt fabric.Packet) (d core.Delivery) {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("backend: malformed kGatherData packet from rank %d: %v", pkt.Src, r))
		}
	}()
	b := serde.FromBytes(pkt.Data)
	d = core.DecodeHeader(b)
	tag := uint32(b.Uvarint())
	hdr := serde.FromBytes(b.RawOut(b.Count(1)))
	if nsegs := b.Uvarint(); nsegs != uint64(len(pkt.Segs)) {
		panic(fmt.Sprintf("header counts %d payload segments, the packet carries %d", nsegs, len(pkt.Segs)))
	}
	g, ok := serde.GathererByTag(tag)
	if !ok {
		panic(fmt.Sprintf("wire tag %d has no gather codec", tag))
	}
	d.Value = g.Scatter(hdr, pkt.Segs)
	// Like a deserialized eager value: the runtime owns the object (and
	// with it the pooled payload the view aliases) until the last
	// consumer is done.
	d.Exclusive = true
	p.tr.ViewDecodes.Add(1)
	return d
}

// recordDeliver emits a message-delivery event from the receive handler.
func (p *Proc) recordDeliver(bytes int) {
	if p.rec != nil {
		p.rec.Record(obs.Event{Kind: obs.EvMsgDeliver, Worker: -1, TT: -1,
			Bytes: int64(bytes)})
	}
}

// boundGraph returns the rank's graph once Bind has run, nil before; the
// ready-channel close is the synchronization point, so concurrent readers
// (doctor, metrics scrape) never race Bind's write of p.graph.
func (p *Proc) boundGraph() *core.Graph {
	select {
	case <-p.ready:
		return p.graph
	default:
		return nil
	}
}

// LiveTarget exposes this rank to the graph doctor: its bound graph, its
// forward-progress counters, and the termination detector's activity level.
func (p *Proc) LiveTarget() live.Target {
	return live.Target{
		Rank:  p.rank,
		Graph: p.boundGraph,
		Progress: func() live.Progress {
			return live.Progress{
				Tasks:        p.tr.Tasks(),
				MsgsSent:     p.tr.MsgsSent.Load(),
				MsgsReceived: p.tr.MsgsReceived.Load(),
			}
		},
		Active: p.det.Active,
		Sched:  p.pool.Stats,
	}
}

// CollectLive implements live.Collector: instantaneous progress gauges for
// the OpenMetrics endpoint, all read from atomics or lock-free sources.
func (p *Proc) CollectLive(emit func(live.Sample)) {
	if g := p.boundGraph(); g != nil {
		emit(live.Sample{Name: obs.GaugePendingShells, Rank: p.rank,
			Value: float64(g.PendingTaskCount())})
		emit(live.Sample{Name: obs.GaugeTrackedValues, Rank: p.rank,
			Value: float64(g.LiveTrackedHandles())})
		emit(live.Sample{Name: obs.GaugePendingReductions, Rank: p.rank,
			Value: float64(g.PendingReductions())})
	}
	var depth int
	for _, d := range p.pool.Depths() {
		depth += d
	}
	emit(live.Sample{Name: obs.GaugeDequeDepth, Rank: p.rank, Value: float64(depth)})
	emit(live.Sample{Name: obs.GaugeParkedWorkers, Rank: p.rank,
		Value: float64(p.pool.Stats().Parked)})
	emit(live.Sample{Name: obs.GaugeTermdetActive, Rank: p.rank,
		Value: float64(p.det.Active())})
	if ss, ok := p.ep.(fabric.StatSource); ok {
		for _, st := range ss.PeerStats() {
			counter := func(name string, v int64) {
				emit(live.Sample{Name: name, Rank: p.rank,
					Peer: st.Peer, HasPeer: true, Counter: true, Value: float64(v)})
			}
			counter(obs.CounterFabricTxBytes, st.TxBytes)
			counter(obs.CounterFabricRxBytes, st.RxBytes)
			counter(obs.CounterFabricTxFrames, st.TxFrames)
			counter(obs.CounterFabricRxFrames, st.RxFrames)
			counter(obs.CounterFabricWritevSegs, st.WritevSegs)
			counter(obs.CounterFabricWritevCalls, st.WritevCalls)
			emit(live.Sample{Name: obs.GaugeFabricQueuedBytes, Rank: p.rank,
				Peer: st.Peer, HasPeer: true, Value: float64(st.QueuedBytes)})
		}
	}
}

// LiveTargets builds one doctor target per rank.
func (rt *Runtime) LiveTargets() []live.Target {
	out := make([]live.Target, len(rt.procs))
	for i, p := range rt.procs {
		out[i] = p.LiveTarget()
	}
	return out
}

// LiveCollectors returns every rank as an OpenMetrics collector.
func (rt *Runtime) LiveCollectors() []live.Collector {
	out := make([]live.Collector, len(rt.procs))
	for i, p := range rt.procs {
		out[i] = p
	}
	return out
}
