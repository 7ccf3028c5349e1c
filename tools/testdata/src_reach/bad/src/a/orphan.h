// Reached only from tests/: the script must name it.
