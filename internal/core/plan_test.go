package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/serde"
)

// planVec is a shape-only value with gather and splitmd traits whose codec
// reports exactly the declared size, so a test can put the tagged wire size
// on any byte around a threshold. PlanSend never reads a payload, so it
// needs none.
type planVec struct{ wire, payload int }

func (v *planVec) PayloadBytes() int { return v.payload }

func init() {
	serde.Register(serde.FuncCodec[*planVec]{
		Enc:     func(*serde.Buffer, *planVec) {},
		Dec:     func(*serde.Buffer) *planVec { return &planVec{} },
		Size:    func(v *planVec) int { return v.wire },
		Gather:  func(*serde.Buffer, *planVec) ([]serde.Segment, bool) { return nil, false },
		Scatter: func(*serde.Buffer, []serde.Segment) *planVec { return &planVec{} },
	})
	serde.RegisterSplitMD(&planVec{})
}

// randomDelivery draws a routing header: any control kind, 0-3 targets with
// small and multi-byte ids, 0-3 keys of mixed tuple types and magnitudes.
func randomDelivery(rng *rand.Rand) Delivery {
	d := Delivery{
		Control:   ControlKind(rng.Intn(int(CtrlReduce) + 1)),
		Mode:      SendMode(rng.Intn(3)),
		OwnsValue: rng.Intn(2) == 0,
		N:         rng.Intn(1<<20) - 1<<10,
	}
	num := func() int { return rng.Intn(1<<uint(rng.Intn(31))) - rng.Intn(200) }
	for range rng.Intn(4) {
		t := TermTarget{TT: rng.Intn(1 << uint(rng.Intn(16))), Term: rng.Intn(300)}
		for range rng.Intn(4) {
			switch rng.Intn(3) {
			case 0:
				t.Keys = append(t.Keys, KeyOf(serde.Int1{num()}))
			case 1:
				t.Keys = append(t.Keys, KeyOf(serde.Int2{num(), num()}))
			default:
				t.Keys = append(t.Keys, KeyOf(serde.Int3{num(), num(), num()}))
			}
		}
		d.Targets = append(d.Targets, t)
	}
	return d
}

// TestPlanSendLadder checks PlanSend against a table-form oracle on
// randomised deliveries: every control kind, nil values, values with no
// traits, gather-only and gather+splitmd values sized ±32 B around both
// floors, OwnsValue on and off, the three send modes, every SendCaps
// toggle. The same deliveries pin HeaderWireSize to the encoder.
func TestPlanSendLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[Proto]int{}
	snaps := map[Proto]int{}
	for i := 0; i < 20000; i++ {
		caps := SendCaps{
			TracksData:      rng.Intn(2) == 0,
			SplitMD:         rng.Intn(2) == 0,
			TreeBroadcast:   rng.Intn(2) == 0,
			EagerThreshold:  []int{0, 0, 2048, 4096, 8192}[rng.Intn(5)],
			GatherThreshold: []int{0, 0, -1, 512, 1024, 2048}[rng.Intn(6)],
		}
		eager, floor := caps.EagerThreshold, caps.GatherThreshold
		if eager == 0 {
			eager = 4096
		}
		if floor == 0 {
			floor = 1024
		}
		// A tagged size within ±32 B of one of the two floors.
		size := []int{eager, max(floor, 64)}[rng.Intn(2)] + rng.Intn(65) - 32

		d := randomDelivery(rng)
		var hasGather, hasSplit bool
		switch rng.Intn(4) {
		case 0: // nil value
		case 1:
			d.Value = serde.Int2{rng.Intn(100), rng.Intn(100)}
		case 2:
			d.Value, hasGather = make([]float64, size/8), true
		default:
			v := &planVec{payload: rng.Intn(1 << 20)}
			v.wire = size - serde.WireSizeAny(v)
			d.Value, hasGather, hasSplit = v, true, true
		}
		switch rng.Intn(3) {
		case 1:
			d.Codec = serde.LookupCached(serde.Int1{})
		case 2:
			if d.Value != nil {
				d.Codec = serde.LookupCached(d.Value)
			}
		}

		b := serde.NewBuffer(64)
		EncodeHeader(b, d)
		if got := HeaderWireSize(d); got != b.Len() {
			t.Fatalf("HeaderWireSize = %d, EncodeHeader wrote %d bytes: %+v", got, b.Len(), d)
		}

		var want SendPlan
		if (d.Control == CtrlNone || d.Control == CtrlReduce) && d.Value != nil {
			want.ValueBytes = serde.WireSizeAny(d.Value)
			switch {
			case caps.SplitMD && hasSplit && want.ValueBytes >= eager:
				want.Proto, want.Snapshot = ProtoSplit, d.Mode == SendCopy
				want.Payload = d.Value.(*planVec).payload
			case hasGather && floor > 0 && want.ValueBytes >= floor:
				want.Proto, want.Snapshot, want.Payload = ProtoGather, !d.OwnsValue, want.ValueBytes
			}
		}
		got := PlanSend(d, caps)
		if (got.Codec != nil) != (want.ValueBytes > 0) || (got.Codec != nil && !got.Codec.For(d.Value)) {
			t.Fatalf("codec %v does not fit value %T (control %d)", got.Codec, d.Value, d.Control)
		}
		got.Codec = nil
		if got != want {
			t.Fatalf("PlanSend = %+v, oracle %+v\ndelivery %+v (%T)\ncaps %+v", got, want, d, d.Value, caps)
		}
		seen[got.Proto]++
		if got.Snapshot {
			snaps[got.Proto]++
		}
	}
	for _, p := range []Proto{ProtoCopy, ProtoGather, ProtoSplit} {
		if seen[p] < 100 || (p != ProtoCopy && (snaps[p] == 0 || snaps[p] == seen[p])) {
			t.Errorf("protocol %d under-sampled: %d plans, %d with snapshot", p, seen[p], snaps[p])
		}
	}
}

// TestPlanBcast pins the broadcast twin: destinations always come back in
// ascending rank order, and a tree — with the value's point-to-point plan —
// is planned only for a tree-capable runtime and two or more ranks.
func TestPlanBcast(t *testing.T) {
	v := make([]float64, 5000) // ≈ 40 KB tagged
	dests := map[int]Delivery{}
	for _, r := range []int{3, 1, 2} {
		dests[r] = Delivery{Value: v, Targets: []TermTarget{{TT: 1, Keys: []Key{KeyOf(serde.Int1{r})}}}}
	}
	tree := SendCaps{TreeBroadcast: true}
	for i := 0; i < 20; i++ {
		pl := PlanBcast(0, dests, tree)
		if !slices.Equal(pl.Ranks, []int{1, 2, 3}) || !slices.Equal(pl.Order, []int{0, 1, 2, 3}) {
			t.Fatalf("ranks %v order %v, want ascending", pl.Ranks, pl.Order)
		}
		if pl.Value.Codec == nil || pl.Value.ValueBytes < 8*len(v) {
			t.Fatalf("tree value plan %+v, want the %d-float value's codec and size", pl.Value, len(v))
		}
	}
	if pl := PlanBcast(0, dests, SendCaps{}); pl.Order != nil || !slices.Equal(pl.Ranks, []int{1, 2, 3}) {
		t.Fatalf("no tree capability: %+v", pl)
	}
	delete(dests, 2)
	delete(dests, 3)
	if pl := PlanBcast(0, dests, tree); pl.Order != nil {
		t.Fatalf("one destination planned a tree: %+v", pl)
	}
}
