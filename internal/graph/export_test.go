package graph

// DerivePlan is what BuildPlan does to a graph that passed Validate and has
// not changed since: the stage derivation alone.
func DerivePlan(g *Graph) *Plan { return g.plan(g.order, g.scopes) }
