// Reached only through x.cc.
