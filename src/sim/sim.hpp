#pragma once

/// Umbrella header for the discrete-event simulation kernel.
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
