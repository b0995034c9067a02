module squatphi/benchmark

go 1.22

require squatphi v0.0.0

replace squatphi => ../
