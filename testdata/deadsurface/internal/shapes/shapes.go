// Package shapes is the dead-surface check's fixture: every declaration
// in it is used or exempt, but Recurse, Unused and scale.
package shapes

import "fmt"

// Shape is the fixture's own interface.
type Shape interface {
	Area() float64
}

// Square implements Shape and fmt.Stringer; nothing names either method.
type Square struct {
	Side float64
}

// Area implements Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// String implements fmt.Stringer.
func (s Square) String() string { return fmt.Sprintf("square(%g)", s.Side) }

// Named embeds Square; the embedded field is never listed.
type Named struct {
	Square
	Label string
}

// Point is only ever built by position, so its fields are never listed.
type Point struct {
	X, Y float64
}

// Origin is used by package main.
var Origin = Point{0, 0}

// Total sums the areas of shapes; package main calls it.
func Total(shapes ...Shape) float64 {
	t := 0.0
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}

// Describe is used only from a test file.
func Describe(n Named) string { return n.Label }

// Recurse calls only itself.
func Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Unused is exported and nothing calls it.
func Unused() {}

// scale is a package var nothing reads.
var scale = 2.0
