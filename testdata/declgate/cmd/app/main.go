// Command app is the fixture's one program; main_test.go marks it as run.
package main

import "fixture/lib"

func main() {
	var c lib.Counter
	c.Size()
	var s lib.Shape = lib.Square{Side: 2}
	_ = s.Area()
	var b lib.Box[int]
	b.Put(1)
	_ = lib.Kernel()
	_ = lib.Sized{}
}
