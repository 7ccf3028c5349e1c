// Bad: process-global mutable state that every simulator in the process shares.
namespace apiary {

int g_counter = 0;

int& Registry() {
  static int registry = 0;
  return registry;
}

// APIARY-SHARED(process)
int g_malformed = 0;

}  // namespace apiary
