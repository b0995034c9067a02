// Command demo is the reachability fixture's binary: its main is the
// root everything in lib is measured against.
package main

import "squatphi/internal/analysis/testdata/analysis/reach/lib"

func main() { lib.Used() }
