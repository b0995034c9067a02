// Package lib is the reachability fixture's library. Dead and
// (*counter).unused are reached from nothing; everything else is reached
// without a call edge from main.
package lib

import "go/types"

// table names build in a package-level initialiser.
var table = build()

func build() map[string]int { return map[string]int{} }

// Used is main's one call.
func Used() {
	_ = types.Config{Importer: importer{}}
	table["used"]++
}

// importer is the loader's lockedImporter in miniature: no code in the
// load calls its methods, go/types does, through types.ImporterFrom.
type importer struct{}

func (importer) Import(path string) (*types.Package, error) { return nil, nil }

func (importer) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return nil, nil
}

// Dead has no caller.
func Dead() {}

type counter struct{ n int }

// unused satisfies no interface and has no caller.
func (c *counter) unused() { c.n++ }
