// Sibling of x.h: its includes count as reached.
#include "src/a/x.h"
#include "src/a/y.h"
