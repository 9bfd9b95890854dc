package backend_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/serde"
	"repro/internal/simnet"
)

// maxRecvDelay bounds the pause a delayEndpoint adds before each packet.
const maxRecvDelay = 50 * time.Microsecond

// delayEndpoint models a slow receive over any fabric: the handler it is
// Started with sleeps a seeded pseudo-random time, up to maxRecvDelay,
// before it takes each packet, on the goroutine that landed it. Packets
// still reach the handler in the fabric's own order, so each schedule it
// produces is one a real fabric could produce, and it starts no goroutine.
type delayEndpoint struct {
	fabric.Endpoint
	mu  sync.Mutex // handler calls overlap; the draws take turns
	rng *rand.Rand
}

func (e *delayEndpoint) Start(h func(fabric.Packet)) {
	e.Endpoint.Start(func(p fabric.Packet) {
		e.mu.Lock()
		d := time.Duration(e.rng.Int63n(int64(maxRecvDelay)))
		e.mu.Unlock()
		time.Sleep(d)
		h(p)
	})
}

// SendSegs is a value's first send, which may park on a network fabric's
// in-flight bound. A receive handler must relay instead, or two handlers
// could park on each other, so the decorator refuses a SendSegs made from
// inside one: every delayed leg checks the relay rule in-process.
func (e *delayEndpoint) SendSegs(dst int, kind uint8, data []byte, segs []serde.Segment) {
	buf := make([]byte, 16<<10)
	if bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("backend.(*Proc).handle(")) {
		panic("a receive handler sent through SendSegs, which may park; relays go through Relay")
	}
	e.Endpoint.SendSegs(dst, kind, data, segs)
}

// delayed builds an in-process fabric of ranks endpoints, each behind a
// delayEndpoint; rank r's delays replay from (seed, r).
func delayed(ranks int, seed int64) []fabric.Endpoint {
	eps := make([]fabric.Endpoint, ranks)
	for r, ep := range simnet.New(ranks) {
		eps[r] = &delayEndpoint{Endpoint: ep, rng: rand.New(rand.NewSource(seed*1000 + int64(r)))}
	}
	return eps
}
