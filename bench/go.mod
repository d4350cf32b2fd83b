module causalgc/bench

go 1.24

require causalgc v0.0.0

replace causalgc => ../
