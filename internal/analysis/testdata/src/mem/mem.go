// Package mem is a minimal replica of hidinglcp/internal/mem for analyzer
// fixtures: the poolescape analyzer matches recyclers structurally (a named
// Pool type in a package named mem with a zero-argument Get), so
// the fixture only needs the shape, not the implementation.
package mem

// Pool is a typed free list over recycled objects.
type Pool[T any] struct {
	New   func() *T
	Reset func(*T)
}

// Get returns a ready-to-use object.
func (p *Pool[T]) Get() *T {
	if p.New != nil {
		return p.New()
	}
	return new(T)
}

// Put recycles x.
func (p *Pool[T]) Put(x *T) {}
