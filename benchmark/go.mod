module xnf/benchmark

go 1.24

require xnf v0.0.0

replace xnf => ../
