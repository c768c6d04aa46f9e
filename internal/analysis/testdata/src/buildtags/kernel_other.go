//go:build !amd64

package buildtags

func kernel() int { return 1 }
