(** Detector-accuracy campaigns over the indulgent consensus runner.

    Sweeps a detector parameter grid x seeded fault plans, auditing
    every run for the indulgence contract: agreement/validity must
    hold in {e every} run (detector-free safety), and every run whose
    plan is {!eventually_stable} must decide — a stable-but-undecided
    run is a {e livelock}, of which an honest campaign must count
    zero, while the lying mutants are expected to produce them
    (liveness lost, safety intact: exactly what the gate checks).

    Like {!Campaign}, the run set is named by [(profile, params,
    first_seed, plans)] alone, runs are isolated simulations keyed by
    seed, and reports are byte-identical at every job count. *)

type config = {
  plans : int;
  first_seed : int;
  n : int;
  params : Detect.Timeout.params list;  (** detector parameter grid *)
  mutant : Detect.Oracle.mutant;
  profile : Gen.profile;
  horizon_slack : int;
      (** extra virtual time past the plan horizon for post-heal
          recovery (capped timeouts and round backoff need room) *)
  max_events : int;
}

val default_config : ?n:int -> unit -> config
(** 50 plans from seed 1 at n=4, default timeout parameters, honest
    detector, default minority-crash profile. *)

val eventually_stable : n:int -> Plan.t -> bool
(** Whether the plan's final state lets the detector stabilise and a
    quorum form: no unhealed cut and a strict majority of nodes up.
    (Weaker than [Plan.quiet_after <> None]: a permanently-crashed
    minority still stabilises.) *)

type outcome = {
  plan_seed : int;
  params_ix : int;  (** index into the config's parameter grid *)
  plan : Plan.t;
  stable : bool;
  decided : bool;  (** every live node learned the decision *)
  agreement : bool;
  validity : bool;
  livelock : bool;  (** [stable && not decided] *)
  decision_latency : int option;
  suspicions : int;
  false_suspicions : int;
  omega_stable_at : int option;
  heartbeats : int;
  virtual_time : int;
  engine_outcome : Dsim.Engine.outcome;
}

type report = outcome Sweep.report
(** Outcomes params-major, then plan order. *)

val agreement_failures : report -> outcome list
val validity_failures : report -> outcome list
val livelocks : report -> outcome list

val run : ?jobs:int -> ?on_outcome:(outcome -> unit) -> config -> report
(** The full sweep ({!Sweep.run}): every parameter set x seed cell, run
    quiet.  @raise Invalid_argument on an empty parameter grid. *)

val pp_report : Format.formatter -> report -> unit

val pp_report_stable : Format.formatter -> report -> unit
(** {!pp_report} minus the timing line — byte-identical across job
    counts. *)
