package graph

// DerivePlan is what BuildPlan does to a graph that passed Validate and has
// not changed since: the stage derivation alone.
func DerivePlan(g *Graph) *Plan { return g.plan(g.order, g.scopes) }

// Ascending reports whether every edge of g runs from a lower operator ID to
// a higher one, the graphs TopoSort orders without its heap.
func (g *Graph) Ascending() bool { return g.ascending() }
