module pcc/bench

go 1.24

require pcc v0.0.0

replace pcc => ../
