// Tests do not count as callers.
#include "src/a/x.h"
