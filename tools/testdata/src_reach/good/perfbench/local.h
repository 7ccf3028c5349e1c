#include "src/b/z.h"
