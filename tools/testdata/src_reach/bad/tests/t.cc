// Tests do not count as callers.
#include "src/a/orphan.h"
#include "src/a/x.h"
