//! Fixture: the benchmark is a caller.

use alpha::used_by_benchmark;
