(** Campaign runner: sweep seeded random fault plans x consensus
    backends over the RSM workload, auditing every run with
    {!Rsm.Checker} (total order, integrity, no-duplication,
    completeness) plus the state-digest comparison, and aggregate a
    coverage/violation report.

    The run set a campaign explores is named by [(profile, first_seed,
    plans)] alone — re-running the same campaign replays exactly the
    same runs, so a failure report is a reproduction recipe. *)

type config = {
  backends : Rsm.Backend.t list;
  plans : int;  (** seeded plans per backend *)
  first_seed : int;  (** plan seeds are [first_seed .. first_seed+plans-1] *)
  n : int;
  clients : int;
  commands : int;  (** per client *)
  batch : int;
  profile : Gen.profile;  (** plan-generation shape ([profile.n] is forced to [n]) *)
  ack_timeout : int;
  max_events : int;  (** per-run budget: bounds runs a hostile plan wedges *)
  trace_capacity : int;  (** bound per-run trace retention *)
  storage : bool;
      (** give every run a WAL-backed store ({!Rsm.Runner.default_store_config}),
          draw storage faults in generated plans, and audit durability *)
}

val default_config : ?n:int -> unit -> config
(** Ben-Or only, 50 plans from seed 1, n=5 (3 clients x 3 commands,
    batch 4), default minority-crash profile, no storage. *)

val safety_ok : 'op Rsm.Runner.report -> bool
(** No checker violations and live-replica digests agree. *)

val complete : 'op Rsm.Runner.report -> bool
(** Every submitted command acked and applied at every live replica. *)

val durable_ok : 'op Rsm.Runner.report -> bool
(** Empty durability audit: every acked command survives at some live
    replica (vacuously true for runs without a store). *)

type outcome = {
  backend_name : string;
  plan_seed : int;
  plan : Plan.t;
  safety : bool;  (** {!safety_ok} of the run *)
  live : bool;  (** {!complete} of the run *)
  durable : bool;  (** {!durable_ok} of the run *)
  acked : int;
  submitted : int;
  virtual_time : int;
  engine_outcome : Dsim.Engine.outcome;
}

type report = outcome Sweep.report
(** Outcomes in plan order (backend-major), at every job count. *)

val safety_failures : report -> outcome list
val incomplete : report -> outcome list
val durability_failures : report -> outcome list

val plan_for : config -> seed:int -> Plan.t
(** The plan a given seed names under this campaign's profile. *)

val run_plan :
  ?quiet:bool ->
  config ->
  backend:Rsm.Backend.t ->
  seed:int ->
  Plan.t ->
  Obj.Kv.op Rsm.Runner.report
(** One deterministic run: the RSM workload for [seed] under the given
    plan.  This is also the shrinker's replay function.  [quiet]
    (default false) runs the engine without tracing — identical report
    fields, no trace. *)

val run : ?jobs:int -> ?on_outcome:(outcome -> unit) -> config -> report
(** The full sweep ({!Sweep.run}): every backend x seed cell, run quiet
    (no trace retention). *)

val pp_report : Format.formatter -> report -> unit

val pp_report_stable : Format.formatter -> report -> unit
(** [pp_report] minus the timing line: deterministic for a given
    campaign, so reports from different job counts (or machines) can
    be diffed byte-for-byte. *)
