// Package cpufeat reports the CPU features the vector kernels need,
// decided by the one check dnn, kde, synthetic and vecmath read.
package cpufeat
