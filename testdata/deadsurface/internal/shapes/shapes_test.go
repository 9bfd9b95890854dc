package shapes_test

import (
	"testing"

	"fixture/internal/shapes"
)

func TestDescribe(t *testing.T) {
	if got := shapes.Describe(shapes.Named{Label: "unit"}); got != "unit" {
		t.Fatal(got)
	}
}
