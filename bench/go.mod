module cachegenie/bench

go 1.24

require cachegenie v0.0.0

replace cachegenie => ../
