// The benchmark is a module of its own so that it builds from its own
// directory. It carries the parent module's name as a prefix, which is what
// lets it import lotec/internal/...; the go line matches the parent's so the
// runtime semantics (timers, loop variables) under test are the parent's.
module lotec/benchmark

go 1.22

require lotec v0.0.0

replace lotec => ../
