package core

// LeakTrackedHandle leaves one handle in g's data tracker that nothing
// will resolve: the leak the graph doctor's zero-live check must report.
func LeakTrackedHandle(g *Graph) { g.newTracked(nil, 1, false) }
