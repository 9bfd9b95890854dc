package trace

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSnapshotAndAdd(t *testing.T) {
	var c Collector
	c.TasksExecuted.Add(3)
	c.MsgsSent.Add(2)
	c.BytesSent.Add(100)
	c.DataCopies.Add(1)
	s := c.Snapshot()
	if s.TasksExecuted != 3 || s.MsgsSent != 2 || s.BytesSent != 100 {
		t.Fatalf("snapshot = %+v", s)
	}
	sum := s.Add(s)
	if sum.TasksExecuted != 6 || sum.BytesSent != 200 || sum.DataCopies != 2 {
		t.Fatalf("sum = %+v", sum)
	}
}

func TestSnapshotStringMentionsEverything(t *testing.T) {
	var c Collector
	c.SplitMDTransfers.Add(7)
	c.BcastsForwarded.Add(5)
	s := c.Snapshot().String()
	for _, want := range []string{"tasks=", "msgs=", "bytes=", "copies=", "splitmd=7", "bcast-fwd=5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestConcurrentCounting(t *testing.T) {
	var c Collector
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.TasksExecuted.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Snapshot().TasksExecuted; got != 8000 {
		t.Fatalf("count = %d", got)
	}
}

// TestNameTableCoversSnapshot checks, by reflection, that the name table
// reaches every Snapshot field exactly once under a name of its own, and
// every Collector cell exactly once — so a counter added without its row
// fails here instead of silently exporting 0.
func TestNameTableCoversSnapshot(t *testing.T) {
	var c Collector
	var s Snapshot
	rows := counters(&c, &s)

	names := map[string]bool{}
	snapRows, liveRows := map[*int64]int{}, map[*atomic.Int64]int{}
	for _, r := range rows {
		if r.name == "" || names[r.name] {
			t.Errorf("name %q is empty or used by two rows", r.name)
		}
		names[r.name] = true
		snapRows[r.snap]++
		if r.live != nil {
			liveRows[r.live]++
		}
	}
	sv := reflect.ValueOf(&s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		if n := snapRows[sv.Field(i).Addr().Interface().(*int64)]; n != 1 {
			t.Errorf("Snapshot.%s is reached by %d rows, want 1", sv.Type().Field(i).Name, n)
		}
	}
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		if n := liveRows[cv.Field(i).Addr().Interface().(*atomic.Int64)]; n != 1 {
			t.Errorf("Collector.%s is reached by %d rows, want 1", cv.Type().Field(i).Name, n)
		}
	}
	if len(rows) != sv.NumField() {
		t.Errorf("%d rows for %d Snapshot fields", len(rows), sv.NumField())
	}

	// Each walks the same table: distinct values come back under the
	// names above, and a Collector cell lands in the Snapshot field of
	// the same name.
	for i, r := range rows {
		*r.snap = int64(i + 1)
	}
	i := 0
	s.Each(func(name string, v int64) {
		if name != rows[i].name || v != int64(i+1) {
			t.Errorf("Each #%d = %s %d, want %s %d", i, name, v, rows[i].name, i+1)
		}
		i++
	})
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(100 + i))
	}
	snap := reflect.ValueOf(c.Snapshot())
	for i := 0; i < cv.NumField(); i++ {
		name := cv.Type().Field(i).Name
		if got := snap.FieldByName(name).Int(); got != int64(100+i) {
			t.Errorf("Collector.%s = %d snapshots as %d", name, 100+i, got)
		}
	}
}
