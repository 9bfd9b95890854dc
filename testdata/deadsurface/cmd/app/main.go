// Command app uses the fixture's live surface.
package main

import (
	"fmt"

	"fixture/internal/shapes"
)

func main() {
	sq := shapes.Square{Side: 2}
	fmt.Println(shapes.Total(sq), sq, shapes.Origin)
}
