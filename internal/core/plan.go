package core

import (
	"slices"

	"repro/internal/collective"
	"repro/internal/serde"
)

// SendCaps are the protocol properties and thresholds of one runtime model
// (§II-D), the only inputs besides the delivery to how a value crosses a
// rank boundary: PlanSend and PlanBcast decide, the engine (backend)
// executes the plan, the simulator (backend/sim) charges it.
// cluster.Flavor embeds it; backend.Options holds only TracksData and
// GatherThreshold, the two the engine honours, and its presets read them
// from the flavor of the same name, so engine and cost model cannot
// drift apart.
type SendCaps struct {
	// TracksData: the runtime owns data lifetimes, so const-ref sends
	// avoid copies (PaRSEC-model: true, MADNESS-model: false).
	TracksData bool
	// SplitMD enables the split-metadata rendezvous protocol: eager
	// metadata, then an RMA fetch with no serialization copies. It is a
	// property of the machine being modelled: true on the simulator's
	// Hawk/Seawulf flavors, always off on the engine, whose fabrics
	// cannot fetch remote memory.
	SplitMD bool
	// TreeBroadcast forwards multi-rank broadcasts along a binomial tree
	// instead of point-to-point sends from the root. Like SplitMD it is a
	// property of the model: true on the simulator's PaRSEC and MPI
	// flavors, always off on the engine, which sends each destination its
	// own push.
	TreeBroadcast bool
	// EagerThreshold is the tagged wire size (bytes) from which splitmd is
	// preferred over the eager paths. Zero means 4 KiB.
	EagerThreshold int
	// GatherThreshold is the tagged wire size (bytes) from which a
	// gather-capable value ships its payload as by-reference segments
	// instead of being copy-encoded. Zero means serde.GatherThreshold
	// (1 KiB); negative disables gather sends on this runtime.
	GatherThreshold int
}

// orDefault resolves a threshold whose zero value means def.
func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// Eager returns the effective splitmd switch-over size.
func (c SendCaps) Eager() int { return orDefault(max(c.EagerThreshold, 0), 4096) }

// Proto names the wire protocol of one point-to-point delivery.
type Proto uint8

const (
	// ProtoCopy: header and value copy-encoded into one eager frame,
	// copy-decoded on arrival. Header-only messages are ProtoCopy too.
	ProtoCopy Proto = iota
	// ProtoGather: encoded header framed, payload as by-reference
	// segments; the receiver decodes a view over the landed memory.
	ProtoGather
	// ProtoSplit: splitmd rendezvous, eager metadata then an RMA fetch.
	ProtoSplit
)

// SendPlan is PlanSend's decision for one delivery.
type SendPlan struct {
	Proto Proto
	// Codec is the value's codec — the edge-resolved one riding the
	// delivery when it matches the value's type, else the registry's; nil
	// when the message is header-only (stream control, or no value).
	Codec *serde.Cached
	// ValueBytes is the tagged wire size the thresholds were measured on.
	ValueBytes int
	// Payload counts the bytes that bypass serialization: the RMA-fetched
	// splitmd payload, or the gathered value.
	Payload int
	// Snapshot: the sender must copy the payload before the transport's
	// deferred read — a SendCopy sender may keep mutating what splitmd
	// registered; a gather sender that does not own the value keeps it.
	Snapshot bool
}

// PlanSend picks the protocol for d under caps, in preference order:
// splitmd rendezvous (types with splitmd traits, from Eager() up), gather
// (gather-capable codecs, from the gather floor up), copy-encode. It reads
// d's shape only, never the payload, so phantom and real values plan alike
// (a gather codec may still decline a value; the executor then copies).
func PlanSend(d Delivery, caps SendCaps) SendPlan {
	if (d.Control != CtrlNone && d.Control != CtrlReduce) || d.Value == nil {
		return SendPlan{}
	}
	pl := SendPlan{Codec: d.Codec}
	if pl.Codec == nil || !pl.Codec.For(d.Value) {
		pl.Codec = serde.LookupCached(d.Value)
	}
	pl.ValueBytes = pl.Codec.WireSizeAny(d.Value)
	if caps.SplitMD && pl.ValueBytes >= caps.Eager() {
		if _, ok := serde.SplitMDFor(d.Value); ok {
			pl.Proto, pl.Snapshot = ProtoSplit, d.Mode == SendCopy
			pl.Payload = d.Value.(serde.SplitMD).PayloadBytes()
			return pl
		}
	}
	floor := orDefault(caps.GatherThreshold, serde.GatherThreshold)
	if _, ok := pl.Codec.Gatherer(); ok && floor > 0 && pl.ValueBytes >= floor {
		pl.Proto, pl.Snapshot, pl.Payload = ProtoGather, !d.OwnsValue, pl.ValueBytes
	}
	return pl
}

// BcastPlan is PlanBcast's decision for one value bound for several ranks.
type BcastPlan struct {
	// Ranks lists the destinations in ascending order; both executors
	// walk it, never the map.
	Ranks []int
	// Order is the binomial-tree order (collective.Order, the root first);
	// nil means no tree: one PlanSend delivery per rank.
	Order []int
	// Value is the point-to-point plan of the value: its codec and size,
	// and (Proto == ProtoSplit) whether it is rendezvous-sized.
	Value SendPlan
}

// PlanBcast plans the emission of dests (one value, per-rank targets) from
// rank self.
func PlanBcast(self int, dests map[int]Delivery, caps SendCaps) BcastPlan {
	pl := BcastPlan{Ranks: make([]int, 0, len(dests))}
	for r := range dests {
		pl.Ranks = append(pl.Ranks, r)
	}
	slices.Sort(pl.Ranks)
	if !caps.TreeBroadcast || len(dests) < 2 {
		return pl
	}
	pl.Order = collective.Order(self, pl.Ranks)
	pl.Value = PlanSend(dests[pl.Ranks[0]], caps)
	return pl
}
