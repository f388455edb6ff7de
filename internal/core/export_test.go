package core

// IsRecursive reports whether c compiled to a reachability fixpoint (a
// cyclic schema graph) rather than the XNF rewrite's DAG.
func IsRecursive(c *Compiled) bool { return c.fix != nil }
