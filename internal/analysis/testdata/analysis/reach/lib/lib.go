// Package lib is the reachability fixture's library. Dead,
// (*counter).unused and ghost.String are reached from nothing; everything
// else is reached without a call edge from main.
package lib

import (
	"go/types"
	"sort"
)

// table names build in a package-level initialiser.
var table = build()

func build() map[string]int { return map[string]int{} }

// Used is main's one call.
func Used() {
	_ = types.Config{Importer: importer{}}
	table["used"]++
	sort.Sort(byLen([]string{"bb", "a"}))
}

// importer is the loader's lockedImporter in miniature: no code in the
// load calls its methods, go/types does, through types.ImporterFrom.
type importer struct{}

func (importer) Import(path string) (*types.Package, error) { return nil, nil }

func (importer) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return nil, nil
}

// byLen is built by a conversion, and sort calls its methods.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Dead has no caller.
func Dead() {}

type counter struct{ n int }

// unused satisfies no interface and has no caller.
func (c *counter) unused() { c.n++ }

// ghost's String satisfies fmt.Stringer, but nothing builds a ghost, so
// nothing can call it.
type ghost struct{}

func (ghost) String() string { return "ghost" }
