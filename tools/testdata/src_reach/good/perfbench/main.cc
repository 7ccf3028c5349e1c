// Reached through perfbench/local.h, a relative include.
#include "local.h"
