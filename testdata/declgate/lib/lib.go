package lib

// Counter.Size is called by the program.
type Counter struct{ n int }

func (c *Counter) Size() int { return c.n }

// Sized is live, but only a test would call its Size, which shares its
// name with Counter.Size.
type Sized struct{ n int }

func (s Sized) Size() int { return s.n }

type Shape interface{ Area() float64 }

// Square.Area is reached only through Shape.
type Square struct{ Side float64 }

func (q Square) Area() float64 { return q.Side * q.Side }

// Box.Put is a method of a generic type.
type Box[T any] struct{ items []T }

func (b *Box[T]) Put(v T) { b.items = append(b.items, v) }

// BenchOnly is reached only from benchmark/.
func BenchOnly() int { return 1 }
