// Reached through perfbench/local.h.
