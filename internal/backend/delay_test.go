package backend_test

import (
	"math/rand"
	"time"

	"repro/internal/fabric"
	"repro/internal/simnet"
)

// maxRecvDelay bounds the pause a delayEndpoint adds before each packet.
const maxRecvDelay = 50 * time.Microsecond

// delayEndpoint models a slow comm thread over any fabric: Recv sleeps a
// seeded pseudo-random time, up to maxRecvDelay, before it returns each
// packet. Packets still leave every link in the fabric's own order, so
// each schedule it produces is one a real fabric could produce, and it
// starts no goroutine.
type delayEndpoint struct {
	fabric.Endpoint
	rng *rand.Rand // Recv's alone: a rank's comm loop is its only caller
}

func (e *delayEndpoint) Recv() (fabric.Packet, bool) {
	p, ok := e.Endpoint.Recv()
	if ok {
		time.Sleep(time.Duration(e.rng.Int63n(int64(maxRecvDelay))))
	}
	return p, ok
}

// delayed builds an in-process fabric of ranks endpoints, each behind a
// delayEndpoint; rank r's delays replay from (seed, r).
func delayed(ranks int, seed int64) []fabric.Endpoint {
	eps := make([]fabric.Endpoint, ranks)
	for r, ep := range simnet.New(ranks, nil) {
		eps[r] = &delayEndpoint{Endpoint: ep, rng: rand.New(rand.NewSource(seed*1000 + int64(r)))}
	}
	return eps
}
