#include "src/a/orphan.h"
