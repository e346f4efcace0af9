//go:build !amd64

package kernels

// Non-amd64 hosts have no assembly backend; dispatch picks "unrolled".
var cpuFeatures []string

func registerArch() {}
