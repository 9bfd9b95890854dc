package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/serde"
)

// The dense tests run a three-input template over keys (i, j) with
// i < boxRows+outRows and j < boxCols. The declared box holds the rows
// below boxRows, so the remaining rows take the shell table.
const (
	boxRows = 64
	boxCols = 64
	outRows = 16
)

func boxIndex(k Key) int {
	ij := k.Value().(serde.Int2)
	if i, j := ij[0], ij[1]; 0 <= i && i < boxRows && 0 <= j && j < boxCols {
		return i*boxCols + j
	}
	return -1
}

func boxKeyAt(s int) Key { return KeyOf(serde.Int2{s / boxCols, s % boxCols}) }

// denseGraph builds the three-input template on a fresh single-rank
// graph, with the box declared or not; body sees every task that runs.
// The graph is traced, so the pending-shell gauge moves.
func denseGraph(dense bool, body func(ctx *TaskContext)) (*Graph, [3]*Edge) {
	g := NewGraph(&mockExec{size: 1, tracks: true, obs: obs.NewSession(obs.Config{Capacity: 64}).Rank(0)})
	var es [3]*Edge
	var ins []InputSpec
	for i := range es {
		es[i] = NewEdge(fmt.Sprintf("in%d", i))
		ins = append(ins, InputSpec{Edge: es[i]})
	}
	spec := TTSpec{Name: "J", Inputs: ins, Body: body}
	if dense {
		spec.Dense = &DenseKeys{Slots: boxRows * boxCols, Index: boxIndex, KeyAt: boxKeyAt}
	}
	g.AddTT(spec)
	g.Seal()
	return g, es
}

// inputOf is the value term carries for key (i, j).
func inputOf(i, j, term int) int { return (i*boxCols+j)*3 + term }

// TestDenseJoinConcurrent feeds every input of thousands of keys, in and
// out of the box, from several goroutines in shuffled order: each task
// must run exactly once, with exactly its inputs.
func TestDenseJoinConcurrent(t *testing.T) {
	var runs sync.Map // Key -> *atomic.Int32
	var bad atomic.Int32
	g, es := denseGraph(true, func(ctx *TaskContext) {
		ij := ctx.Key().Value().(serde.Int2)
		for term := 0; term < 3; term++ {
			if got := ctx.Input(term).(int); got != inputOf(ij[0], ij[1], term) {
				bad.Add(1)
			}
		}
		n, _ := runs.LoadOrStore(ctx.Key(), new(atomic.Int32))
		n.(*atomic.Int32).Add(1)
	})
	type msg struct{ i, j, term int }
	var msgs []msg
	for i := 0; i < boxRows+outRows; i++ {
		for j := 0; j < boxCols; j++ {
			for term := 0; term < 3; term++ {
				msgs = append(msgs, msg{i, j, term})
			}
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(msgs), func(a, b int) { msgs[a], msgs[b] = msgs[b], msgs[a] })
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for x := w; x < len(msgs); x += workers {
				m := msgs[x]
				g.Seed(es[m.term], serde.Int2{m.i, m.j}, inputOf(m.i, m.j, m.term))
			}
		}(w)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d inputs reached the wrong task", n)
	}
	count := 0
	runs.Range(func(k, v any) bool {
		count++
		if n := v.(*atomic.Int32).Load(); n != 1 {
			t.Errorf("task %v ran %d times", k, n)
		}
		return true
	})
	if want := (boxRows + outRows) * boxCols; count != want {
		t.Fatalf("%d tasks ran, want %d", count, want)
	}
	if n, gauge := g.PendingTaskCount(), g.pendingShells.Load(); n != 0 || gauge != 0 {
		t.Fatalf("%d tasks still pending (gauge %d) after every input arrived", n, gauge)
	}
	// Taking a task clears its slot, so the box keeps no input alive.
	for p := range g.TTByID(0).dense.pages {
		pg := g.TTByID(0).dense.pages[p].Load()
		for j := range pg.mask {
			if pg.mask[j].Load() != 0 || pg.in[3*j] != nil || pg.in[3*j+1] != nil || pg.in[3*j+2] != nil {
				t.Fatalf("slot %d not reset after its task ran", p*densePageSlots+j)
			}
		}
	}
}

// TestDenseDuplicatePanics checks that a second message to a terminal of
// a waiting key panics as the table does, in and out of the box.
func TestDenseDuplicatePanics(t *testing.T) {
	message := func(dense bool, key serde.Int2) (msg string) {
		g, es := denseGraph(dense, func(*TaskContext) {})
		g.Seed(es[1], key, 1)
		defer func() { msg = fmt.Sprint(recover()) }()
		g.Seed(es[1], key, 2)
		return ""
	}
	for _, key := range []serde.Int2{{3, 5}, {boxRows + 1, 5}} {
		table, dense := message(false, key), message(true, key)
		if !strings.Contains(table, "received a second message") {
			t.Fatalf("table path: duplicate delivery panicked with %q", table)
		}
		if dense != table {
			t.Fatalf("key %v: dense path panicked with %q, the table with %q", key, dense, table)
		}
	}
}

// TestDensePendingMatchesTable half-feeds the same keys to a graph with
// the box and one without: the doctor's view must name the same keys and
// the same missing terminals.
func TestDensePendingMatchesTable(t *testing.T) {
	feed := func(dense bool) *Graph {
		g, es := denseGraph(dense, func(*TaskContext) {})
		for i := 0; i < boxRows+outRows; i++ {
			for j := 0; j < boxCols; j++ {
				// (i+j) % 4 terminals arrive: none, one, two or all three.
				for term := 0; term < min((i+j)%4, 3); term++ {
					g.Seed(es[term], serde.Int2{i, j}, inputOf(i, j, term))
				}
			}
		}
		return g
	}
	view := func(g *Graph) []string {
		tasks, total := g.PendingTasks(0)
		if int(total) != len(tasks) {
			t.Fatalf("PendingTasks total %d for %d tasks", total, len(tasks))
		}
		var out []string
		for _, pt := range tasks {
			if pt.KeyVal.String() != pt.Key {
				t.Fatalf("pending key %q does not print as its value %v", pt.Key, pt.KeyVal)
			}
			s := pt.Key
			for _, mi := range pt.Missing {
				s += fmt.Sprintf(" %d:%s", mi.Term, mi.Edge)
			}
			out = append(out, s)
		}
		sort.Strings(out)
		return out
	}
	table, dense := feed(false), feed(true)
	want, got := view(table), view(dense)
	if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("dense pending view differs from the table's:\n got %d %v\nwant %d %v", len(got), got, len(want), want)
	}
	if a, b := dense.PendingTaskCount(), table.PendingTaskCount(); a != b {
		t.Fatalf("PendingTaskCount: dense %d, table %d", a, b)
	}
	if a, b := dense.TTByID(0).PendingShells(), table.TTByID(0).PendingShells(); a != b {
		t.Fatalf("PendingShells: dense %d, table %d", a, b)
	}
	if a, b := dense.pendingShells.Load(), table.pendingShells.Load(); a != b || a != int64(len(want)) {
		t.Fatalf("pending-shell gauge: dense %d, table %d, want %d", a, b, len(want))
	}
	// Only the keys outside the box wait in the table.
	outside := 0
	for i := boxRows; i < boxRows+outRows; i++ {
		for j := 0; j < boxCols; j++ {
			if n := (i + j) % 4; n == 1 || n == 2 {
				outside++
			}
		}
	}
	if n := dense.TTByID(0).match.live.Load(); n != int64(outside) {
		t.Fatalf("%d shells in the table, want the %d keys outside the box", n, outside)
	}
	sample, total := dense.PendingTasks(5)
	if len(sample) != 5 || int(total) != len(want) {
		t.Fatalf("PendingTasks(5): %d tasks of %d, want 5 of %d", len(sample), total, len(want))
	}
}

// TestDenseDeclarationRefused pins AddTT's refusals of a bad key box.
func TestDenseDeclarationRefused(t *testing.T) {
	add := func(spec TTSpec) (msg string) {
		g := newMockCluster(1, true).graphs[0]
		spec.Name = "B"
		spec.Body = func(*TaskContext) {}
		if spec.Inputs == nil {
			spec.Inputs = []InputSpec{{Edge: NewEdge("in")}}
		}
		defer func() { msg = fmt.Sprint(recover()) }()
		g.AddTT(spec)
		return "<nil>"
	}
	reduce := func(acc, v any) any { return v }
	for _, c := range []struct {
		spec TTSpec
		want string
	}{
		{TTSpec{Dense: &DenseKeys{Slots: 4, KeyAt: boxKeyAt}}, "without both Index and KeyAt"},
		{TTSpec{Dense: &DenseKeys{Slots: 4, Index: boxIndex}}, "without both Index and KeyAt"},
		{TTSpec{Dense: &DenseKeys{Slots: -1}}, "key box of -1 slots"},
		{TTSpec{
			Inputs: []InputSpec{{Edge: NewEdge("a")}, {Edge: NewEdge("s"), Reducer: reduce}},
			Dense:  &DenseKeys{Slots: 4, Index: boxIndex, KeyAt: boxKeyAt},
		}, "input 1 is streaming"},
		// An empty box is no box.
		{TTSpec{Dense: &DenseKeys{}}, "<nil>"},
	} {
		if got := add(c.spec); !strings.Contains(got, c.want) {
			t.Errorf("AddTT with %+v: got %q, want %q", *c.spec.Dense, got, c.want)
		}
	}
}
