// Package atomicfield is the fixture corpus for the copylocks-extension
// analyzer: sync/atomic fields and //boltvet:guardedby atomic fields must
// never be accessed plainly or copied.
package atomicfield

import "sync/atomic"

type M struct {
	hits atomic.Int64
	raw  int64 //boltvet:guardedby atomic -- updated from the write path, read by stats
	name string
}

// --- plain-access positives ---

func plainRead(m *M) int64 {
	v := m.hits // want `plain access to atomic field` `value of atomic.Int64 is assigned by value`
	return v.Load()
}

func plainWriteGuarded(m *M) {
	m.raw = 7 // want `field M\.raw is //boltvet:guardedby atomic`
}

func plainReadGuarded(m *M) int64 {
	return m.raw // want `field M\.raw is //boltvet:guardedby atomic`
}

// --- copy positives, including the cross-function return-by-value pair ---

func copyStruct(m *M) {
	snap := *m // want `value of atomicfield.M is assigned by value, copying its sync/atomic fields`
	_ = snap.name
}

func passByValue(m M) { // want `parameter atomicfield.M of passByValue takes atomicfield.M by value`
	_ = m.name
}

func callByValue(m *M) {
	passByValue(*m) // want `value of atomicfield.M is passed by value, copying its sync/atomic fields`
}

func returnByValue(m *M) M { // want `result atomicfield.M of returnByValue takes atomicfield.M by value`
	return *m // want `value of atomicfield.M is returned by value, copying its sync/atomic fields`
}

func (m M) valueReceiver() string { // want `receiver atomicfield.M of valueReceiver takes atomicfield.M by value`
	return m.name
}

func rangeCopy(ms []M) {
	for _, m := range ms { // want `range copies values of atomicfield.M`
		_ = m.name
	}
}

// --- negatives: the atomic API, pointers, and fresh construction ---

func ok(m *M) int64 {
	m.hits.Add(1)
	p := &m.hits
	ptr := &m.raw
	_ = atomic.LoadInt64(ptr)
	fresh := M{name: "fresh"}
	fresh.hits.Add(1)
	return p.Load()
}

func okPointers(ms []*M) {
	for _, m := range ms {
		m.hits.Add(1)
	}
}

// --- suppressed negative: reviewed and waived with a reason ---

func waived(m *M) {
	snap := *m //boltvet:ignore atomicfield -- fixture: suppressed on purpose to pin the reasoned-ignore path
	_ = snap.name
}
