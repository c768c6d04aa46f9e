// Package cpufeat reports the CPU features the workloads' vector kernels
// need, decided by the one check dnn, kde and synthetic read.
package cpufeat
