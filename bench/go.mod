module scout/bench

go 1.24

require scout v0.0.0

replace scout => ../
