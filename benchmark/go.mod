// The benchmark is a module of its own so that it builds from its own
// build file; the path under repro/ is what lets it import the repository's
// internal packages, and the replace line points at the checkout it sits in.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
