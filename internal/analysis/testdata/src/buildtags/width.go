package buildtags

// Width reads the kernel of whichever file the build compiles.
func Width() int { return kernel() }
