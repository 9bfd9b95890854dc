package des

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := New()
	var order []float64
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Fatalf("final time = %v", e.Now())
	}
}

func TestTiesRunInSchedulingOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var times []float64
	e.At(1, func() {
		times = append(times, e.Now())
		e.At(2, func() { times = append(times, e.Now()) })
		e.At(0.5, func() { times = append(times, e.Now()) })
	})
	e.Run()
	want := []float64{1, 1.5, 3}
	for i, w := range want {
		if times[i] != w {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	e := New()
	fired := false
	e.At(5, func() {
		e.At(-3, func() {
			fired = true
			if e.Now() != 5 {
				t.Errorf("clamped event ran at %v", e.Now())
			}
		})
	})
	e.Run()
	if !fired {
		t.Fatal("clamped event never ran")
	}
}

// Property: for any random schedule, virtual time is non-decreasing over
// the execution and ends at the max scheduled time.
func TestTimeMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		last := -1.0
		monotone := true
		maxT := 0.0
		n := 1 + rng.Intn(50)
		for i := 0; i < n; i++ {
			dt := rng.Float64() * 10
			if dt > maxT {
				maxT = dt
			}
			e.At(dt, func() {
				if e.Now() < last {
					monotone = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return monotone && e.Now() == maxT && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
