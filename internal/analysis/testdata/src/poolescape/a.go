// Fixture for the poolescape analyzer: pooled objects (mem.Pool, sync.Pool)
// escaping via return, package-level store, or caller-visible store are
// seeded violations; defensive copies, stores into the pooled object itself,
// and plain local use stay clean.
package poolescape

import (
	"mem"
	"sync"
)

type scratch struct {
	buf  []byte
	ints []int
}

var pool mem.Pool[scratch]

// badReturn returns the pooled object itself.
func badReturn() *scratch {
	sc := pool.Get()
	defer pool.Put(sc)
	return sc // want "pooled buffer sc is returned"
}

// badReturnField returns a buffer owned by the pooled object.
func badReturnField() []byte {
	sc := pool.Get()
	defer pool.Put(sc)
	return sc.buf // want "pooled buffer sc is returned"
}

var leaked []byte

// badGlobalStore parks a pooled buffer in package-level state.
func badGlobalStore() {
	sc := pool.Get()
	defer pool.Put(sc)
	leaked = sc.buf // want "package-level variable leaked"
}

var leakedVar = func() []byte { return nil }()

// badGlobalIdent assigns the pooled buffer to a package-level variable
// directly.
func badGlobalIdent() {
	sc := pool.Get()
	defer pool.Put(sc)
	leakedVar = sc.buf // want "package-level variable leakedVar"
}

type holder struct{ b []byte }

var globalHolder holder

// badGlobalFieldStore stores through a field path rooted at a package-level
// variable.
func badGlobalFieldStore() {
	sc := pool.Get()
	defer pool.Put(sc)
	globalHolder.b = sc.buf // want "package-level state rooted at globalHolder"
}

// badParamStore hands the pooled buffer to caller-visible state.
func badParamStore(h *holder) {
	sc := pool.Get()
	defer pool.Put(sc)
	h.b = sc.buf // want "caller-visible state rooted at parameter h"
}

// badRecvStore is the method-receiver variant.
func (h *holder) badRecvStore() {
	sc := pool.Get()
	defer pool.Put(sc)
	h.b = sc.ints2() // no call results are tainted, so this line is clean
	h.b = sc.buf     // want "caller-visible state rooted at parameter h"
}

func (s *scratch) ints2() []byte { return nil }

// badSyncPool taints through sync.Pool and a type assertion.
func badSyncPool(p *sync.Pool) []byte {
	v := p.Get()
	b := v.(*[]byte)
	p.Put(v)
	return *b // want "pooled buffer b is returned"
}

// badGrowingAppend aliases the pooled backing array: append without fresh
// backing may return the same array.
func badGrowingAppend() []byte {
	sc := pool.Get()
	defer pool.Put(sc)
	out := append(sc.buf, 1, 2)
	return out // want "pooled buffer out is returned"
}

// badSlice returns a subslice of the pooled buffer.
func badSlice() []byte {
	sc := pool.Get()
	defer pool.Put(sc)
	return sc.buf[:2] // want "pooled buffer sc is returned"
}

// goodCopyAppend makes the canonical fresh-backing copy.
func goodCopyAppend() []byte {
	sc := pool.Get()
	defer pool.Put(sc)
	return append([]byte(nil), sc.buf...)
}

// goodEmptyLitAppend is the composite-literal spelling of the same copy.
func goodEmptyLitAppend() []int {
	sc := pool.Get()
	defer pool.Put(sc)
	return append([]int{}, sc.ints...)
}

// goodString copies via a string conversion.
func goodString() string {
	sc := pool.Get()
	defer pool.Put(sc)
	return string(sc.buf)
}

// goodMakeCopy copies into a separately allocated buffer.
func goodMakeCopy() []int {
	sc := pool.Get()
	defer pool.Put(sc)
	out := make([]int, len(sc.ints))
	copy(out, sc.ints)
	return out
}

// goodScratchStore writes into the pooled object itself — the normal
// scratch discipline.
func goodScratchStore() {
	sc := pool.Get()
	sc.buf = append(sc.buf[:0], 'a')
	pool.Put(sc)
}

// goodLocalUse reads the pooled object without leaking it.
func goodLocalUse() int {
	sc := pool.Get()
	defer pool.Put(sc)
	return len(sc.buf)
}

// goodReassign kills taint when the variable is rebound to fresh backing.
func goodReassign() []byte {
	sc := pool.Get()
	b := sc.buf
	b = make([]byte, 4)
	pool.Put(sc)
	return b
}
