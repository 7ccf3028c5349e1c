// Reached from bench/b.cc.
