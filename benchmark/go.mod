module shhc/benchmark

go 1.24

require shhc v0.0.0

replace shhc => ../
