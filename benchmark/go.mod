module smdb/benchmark

go 1.22

require smdb v0.0.0

replace smdb => ../
