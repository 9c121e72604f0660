module slotsel/benchmark

go 1.22

require slotsel v0.0.0

replace slotsel => ../
