//go:build !amd64

package lib

func Kernel() int { return fallback() }

// fallback is reached only on the stub's GOARCH.
func fallback() int { return 2 }
