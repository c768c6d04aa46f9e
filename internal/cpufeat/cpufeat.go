// Package cpufeat reports the CPU features the workloads' vector kernels
// need, decided by the one check both dnn and kde read.
package cpufeat
