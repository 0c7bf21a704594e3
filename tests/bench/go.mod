module spectm/tests/bench

go 1.23.0

require spectm v0.0.0

replace spectm => ../..
