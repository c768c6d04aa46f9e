package buildtags

// kernel is declared once per build: here on amd64, in kernel_other.go
// everywhere else.
func kernel() int { return 4 }
