#pragma once

/// Umbrella header for the TPIE-like external-memory toolkit.
#include "extmem/btree.hpp"
#include "extmem/bte.hpp"
#include "extmem/distribute.hpp"
#include "extmem/distribution_sort.hpp"
#include "extmem/merge.hpp"
#include "extmem/pqueue.hpp"
#include "extmem/radix_sort.hpp"
#include "extmem/record.hpp"
#include "extmem/scan.hpp"
#include "extmem/sort.hpp"
#include "extmem/stream.hpp"
