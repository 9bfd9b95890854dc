package trace

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
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
// every Collector cell exactly once — the TaskCells in every copy, each
// summed into Snapshot — so a counter added without its row, or a per-task
// counter given a row that reads the shared copy alone, fails here instead
// of silently exporting 0 or a part.
func TestNameTableCoversSnapshot(t *testing.T) {
	const workers = 3
	var c Collector
	c.SizeWorkers(workers)
	var s Snapshot
	rows := counters(&c, &c.TaskCells, &s)

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
	// cells lists every counter cell of the collector by field name, the
	// shared TaskCells included; task lists each worker copy's.
	cells := map[string]*atomic.Int64{}
	var task []map[string]*atomic.Int64
	walk := func(v reflect.Value, into map[string]*atomic.Int64) {
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue
			}
			if p, ok := v.Field(i).Addr().Interface().(*atomic.Int64); ok {
				into[v.Type().Field(i).Name] = p
			}
		}
	}
	cv := reflect.ValueOf(&c).Elem()
	walk(cv, cells)
	walk(cv.FieldByName("TaskCells"), cells)
	for w := 0; w < workers; w++ {
		m := map[string]*atomic.Int64{}
		walk(reflect.ValueOf(c.For(w)).Elem(), m)
		task = append(task, m)
	}
	if len(task[0]) != reflect.TypeOf(TaskCells{}).NumField() {
		t.Errorf("TaskCells has %d fields, %d of them counters", reflect.TypeOf(TaskCells{}).NumField(), len(task[0]))
	}
	for name, p := range cells {
		if n := liveRows[p]; n != 1 {
			t.Errorf("Collector.%s is reached by %d rows, want 1", name, n)
		}
	}
	if len(rows) != sv.NumField() {
		t.Errorf("%d rows for %d Snapshot fields", len(rows), sv.NumField())
	}

	// Each walks the same table: distinct values come back under the
	// names above, and a Collector cell lands in the Snapshot field of
	// the same name, summed over its copies.
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
	want := map[string]int64{}
	k := int64(100)
	for name, p := range cells {
		p.Store(k)
		want[name] = k
		k += 100
	}
	for w, m := range task {
		for name, p := range m {
			p.Store(int64(w + 1))
			want[name] += int64(w + 1)
		}
	}
	snap := reflect.ValueOf(c.Snapshot())
	for name, v := range want {
		if got := snap.FieldByName(name).Int(); got != v {
			t.Errorf("Collector.%s snapshots as %d, want %d (shared and per-worker copies summed)", name, got, v)
		}
	}
	if got := c.Tasks(); got != want["TasksExecuted"] {
		t.Errorf("Tasks() = %d, want %d", got, want["TasksExecuted"])
	}
}

// TestWorkerCellsPadded keeps each worker's TaskCells on cache lines of
// its own, and a worker −1 or out of range on the shared copy.
func TestWorkerCellsPadded(t *testing.T) {
	if n := unsafe.Sizeof(workerCells{}); n%64 != 0 {
		t.Errorf("workerCells is %d bytes, want a multiple of 64", n)
	}
	var c Collector
	if c.For(0) != &c.TaskCells {
		t.Error("an unsized collector gave worker 0 a copy of its own")
	}
	c.SizeWorkers(2)
	if c.For(-1) != &c.TaskCells || c.For(2) != &c.TaskCells || c.For(0) == c.For(1) || c.For(1) == &c.TaskCells {
		t.Error("For does not map workers 0 and 1 to copies of their own and the rest to the shared one")
	}
}
