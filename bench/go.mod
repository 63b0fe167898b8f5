module sompi/bench

go 1.22

require sompi v0.0.0

replace sompi => ../
