// Umbrella header for the EUCON library.
//
// Quickstart:
//
//   #include "eucon/eucon.h"
//
//   eucon::ExperimentConfig cfg;
//   cfg.spec = eucon::workloads::simple();
//   cfg.mpc = eucon::workloads::simple_controller_params();
//   cfg.sim.etf = eucon::rts::EtfProfile::constant(0.5);
//   auto result = eucon::run_experiment(cfg);
//
// See README.md for the architecture overview and examples/ for complete
// programs.
#pragma once

#include "control/adaptive.h"
#include "control/admission.h"
#include "control/controller.h"
#include "control/gain_estimator.h"
#include "control/diagnostics.h"
#include "control/hierarchical.h"
#include "control/model.h"
#include "control/mpc.h"
#include "control/sparse_model.h"
#include "control/topology.h"
#include "control/open_loop.h"
#include "control/pid.h"
#include "control/reallocation.h"
#include "control/stability.h"
#include "control/uncoordinated.h"
#include "eucon/experiment.h"
#include "eucon/faults.h"
#include "eucon/metrics.h"
#include "eucon/network.h"
#include "eucon/replication.h"
#include "eucon/report.h"
#include "eucon/scenario.h"
#include "eucon/steer.h"
#include "eucon/workloads.h"
#include "linalg/eig.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "linalg/vector.h"
#include "qp/lsqlin.h"
#include "rts/simulator.h"
#include "rts/spec.h"
#include "rts/trace.h"
