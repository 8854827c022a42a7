module smol/benchmark

go 1.22

require smol v0.0.0

replace smol => ../
