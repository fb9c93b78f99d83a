// Package cpuid reports what the CPU offers the hand-written vector
// kernels: tree's force block and advect's SL-MPP5 lanes. Each kernel
// package reads it once at start-up and keeps a Go path that every other
// CPU and architecture takes.
package cpuid
