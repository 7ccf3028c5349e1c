// Reached from bench/.
#include "src/a/x.h"
