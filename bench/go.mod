module lightyear/bench

go 1.24

require lightyear v0.0.0

replace lightyear => ../
