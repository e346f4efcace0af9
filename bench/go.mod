module edgekg/bench

go 1.24

require edgekg v0.0.0

replace edgekg => ../
