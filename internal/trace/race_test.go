package trace

import (
	"strings"
	"sync"
	"testing"
)

// TestCollectorRace hammers every Collector counter from many goroutines
// while another goroutine snapshots concurrently. Run under -race; after
// the writers join, totals must be exact.
func TestCollectorRace(t *testing.T) {
	const goroutines, perG = 8, 5000
	var c Collector

	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := c.Snapshot()
				// Monotonic counters can never read negative mid-run.
				if s.TasksExecuted < 0 || s.BytesReceived < 0 {
					t.Error("negative counter in concurrent snapshot")
					return
				}
				_ = s.String()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.TasksExecuted.Add(1)
				c.MsgsSent.Add(1)
				c.MsgsReceived.Add(1)
				c.BytesSent.Add(10)
				c.BytesReceived.Add(10)
				c.DataCopies.Add(1)
				c.CopiesAvoided.Add(1)
				c.SplitMDTransfers.Add(1)
				c.CopySends.Add(1)
				c.BcastsForwarded.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	s := c.Snapshot()
	const n = goroutines * perG
	if s.TasksExecuted != n || s.MsgsSent != n || s.MsgsReceived != n ||
		s.DataCopies != n || s.CopiesAvoided != n || s.SplitMDTransfers != n ||
		s.CopySends != n || s.BcastsForwarded != n {
		t.Errorf("counter totals off: %+v, want %d each", s, n)
	}
	if s.BytesSent != 10*n || s.BytesReceived != 10*n {
		t.Errorf("bytes = %d/%d, want %d/%d", s.BytesSent, s.BytesReceived, 10*n, 10*n)
	}
}

func TestSnapshotAddAndStringIncludeBytesReceived(t *testing.T) {
	var c Collector
	c.BytesSent.Add(7)
	c.BytesReceived.Add(5)
	sum := c.Snapshot().Add(c.Snapshot())
	if sum.BytesReceived != 10 {
		t.Errorf("Add lost BytesReceived: %d", sum.BytesReceived)
	}
	if got := sum.String(); !strings.Contains(got, "bytes=14/10") {
		t.Errorf("String missing sent/received bytes: %s", got)
	}
}
