// The host-time benchmark is a module of its own so that it builds from its
// own build file; its import path stays under metadataflow/, which is what
// lets it reach the layers in ../internal.
module metadataflow/benchmarks

go 1.22

require metadataflow v0.0.0

replace metadataflow => ../
