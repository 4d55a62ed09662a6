module lqs/bench

go 1.22

require lqs v0.0.0

replace lqs => ../
