package tile

import (
	"sync"
	"testing"

	"repro/internal/serde"
)

func TestCloneIndependent(t *testing.T) {
	a := New(2, 3)
	a.Set(1, 2, 5)
	b := a.Clone()
	b.Set(1, 2, 9)
	if a.At(1, 2) != 5 {
		t.Fatal("clone aliases original")
	}
}

func TestPhantomCloneKeepsShape(t *testing.T) {
	p := Phantom(4, 5)
	c := p.Clone()
	if !c.IsPhantom() || c.Rows != 4 || c.Cols != 5 {
		t.Fatalf("phantom clone = %v", c)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	a := New(3, 2)
	for i := range a.Data {
		a.Data[i] = float64(i) * 1.5
	}
	b := serde.NewBuffer(128)
	serde.EncodeAny(b, a)
	got := serde.DecodeAny(serde.FromBytes(b.Bytes())).(*Tile)
	if !got.Equal(a, 0) {
		t.Fatalf("round trip mismatch: %v", got.Data)
	}
}

func TestPhantomCodecRoundTrip(t *testing.T) {
	p := Phantom(7, 9)
	b := serde.NewBuffer(32)
	serde.EncodeAny(b, p)
	got := serde.DecodeAny(serde.FromBytes(b.Bytes())).(*Tile)
	if !got.IsPhantom() || got.Rows != 7 || got.Cols != 9 {
		t.Fatalf("phantom round trip = %v", got)
	}
	// Wire size models the full payload even for phantoms.
	if serde.WireSizeAny(p) < p.PayloadSize() {
		t.Fatalf("phantom wire size %d < payload %d", serde.WireSizeAny(p), p.PayloadSize())
	}
}

// TestSplitMDAllocate: no executor allocates a tile from splitmd metadata
// any more; what the tile still owes the cost model is its opt-in and a
// payload size that covers phantoms too.
func TestSplitMDAllocate(t *testing.T) {
	for _, src := range []*Tile{New(3, 4), Phantom(3, 4)} {
		md, ok := serde.SplitMDFor(src)
		if !ok {
			t.Fatal("tile has not opted in to splitmd")
		}
		if md.PayloadBytes() != 8*3*4 {
			t.Fatalf("%v: PayloadBytes = %d, want %d", src, md.PayloadBytes(), 8*3*4)
		}
	}
}

func TestGrid(t *testing.T) {
	g := Grid{N: 100, NB: 32}
	if g.NT() != 4 {
		t.Fatalf("NT = %d", g.NT())
	}
	if g.Dim(0) != 32 || g.Dim(3) != 4 {
		t.Fatalf("dims = %d, %d", g.Dim(0), g.Dim(3))
	}
	exact := Grid{N: 64, NB: 32}
	if exact.NT() != 2 || exact.Dim(1) != 32 {
		t.Fatalf("exact grid wrong")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	a := New(1, 2)
	a.Data[0], a.Data[1] = 3, 4
	if n := a.FrobeniusNorm(); n != 5 {
		t.Fatalf("norm = %v", n)
	}
}

// TestEndViewLeaseOnce races eight goroutines to retire the lease of one
// scatter-decoded tile — two workers each taking the same received tile as
// a raw input do exactly that. The recv-view ledger must fall by one, not
// once per caller, in every round; a tile that is no view, ended by the
// same callers, never touches it. Run under -race.
func TestEndViewLeaseOnce(t *testing.T) {
	src := New(4, 4)
	g, _ := serde.LookupCached(src).Gatherer()
	hdr := serde.NewBuffer(16)
	segs, ok := g.Segments(hdr, src)
	if !ok {
		t.Fatal("a dense tile declined the gather path")
	}
	for round := 0; round < 100; round++ {
		base := serde.LiveRecvViews()
		view := g.Scatter(serde.FromBytes(hdr.Bytes()), segs).(*Tile)
		if n := serde.LiveRecvViews(); n != base+1 {
			t.Fatalf("scatter decode moved the ledger %d -> %d, want +1", base, n)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				view.EndViewLease()
				src.EndViewLease()
			}()
		}
		close(start)
		wg.Wait()
		if n := serde.LiveRecvViews(); n != base {
			t.Fatalf("round %d: 8 concurrent EndViewLease calls left the ledger at %d, want %d (one view, one retirement)", round, n, base)
		}
	}
}

// TestPooledCyclesDoNotAllocate pins the steady state of the two pooled
// round trips every remote tile send leans on: a Clone drawn from the tile
// pool and Released back, and an encode into a pooled serde buffer that is
// Released back. After one warm call neither may allocate.
func TestPooledCyclesDoNotAllocate(t *testing.T) {
	// Under the race detector sync.Pool drops a quarter of what is Put, so
	// recycled buffers are reallocated at random; a pool that loses several
	// of 64 round trips (a P migration loses at most one) is that.
	var p sync.Pool
	lost := 0
	for range 64 {
		p.Put(new(int))
		if p.Get() == nil {
			lost++
		}
	}
	if lost > 3 {
		t.Skip("sync.Pool is lossy here (race detector): allocation counts are not stable")
	}
	src := New(128, 128)
	clone := func() { src.Clone().Release() }
	small := New(64, 64)
	encode := func() {
		buf := serde.GetBuffer(256)
		serde.EncodeAny(buf, small)
		buf.Release()
	}
	for _, c := range []struct {
		name  string
		cycle func()
	}{{"128x128 Clone+Release", clone}, {"64x64 GetBuffer+EncodeAny+Release", encode}} {
		c.cycle()
		if n := testing.AllocsPerRun(100, c.cycle); n != 0 {
			t.Errorf("%s: %v allocs per cycle, want 0", c.name, n)
		}
	}
}
