// Package tagged is the fixture corpus for build-tag loading: inv.go is
// only part of the package under the boltinvariants tag, and it carries
// the package's only errflow violation. A loader that silently drops
// tagged files makes this package look clean.
package tagged

type file struct{}

func (file) Sync() error { return nil }

var f file

func clean() error {
	return f.Sync()
}
