(** Nemesis campaigns over the universal construction: sweep objects x
    backends x plan seeds, Wing–Gong-checking every run.

    The per-run gates are {!Workload.Obj_load.summary.ok}: zero
    total-order/completeness/durability violations, agreeing
    live-replica digests, a quiescent engine, {e and} a linearizable
    history w.r.t. the object's sequential spec.  Deterministic: the
    same config yields the same outcomes at every job count. *)

type config = {
  backends : Rsm.Backend.t list;
  objects : string list;  (** names from {!Obj.Registry} *)
  plans : int;  (** fault plans (= seeds) per object x backend cell *)
  first_seed : int;
  n : int;
  clients : int;
  commands : int;  (** per client; [clients * commands <= 62] (WG cap) *)
  batch : int;
  profile : Gen.profile;
  storage : bool;  (** give replicas WAL-backed disks + storage faults *)
  drop_nth : int option;
      (** run the broken construction that acks but discards the K-th
          state-changing entry ([drop_nth] of {!Workload.Obj_load.run}) *)
}

val default_config : ?n:int -> unit -> config
(** Ben-Or only, every registry object, 5 plans from seed 1, n=5,
    3 clients x 4 commands, batch 4, default profile, no storage, the
    correct construction. *)

type outcome = {
  summary : Workload.Obj_load.summary;
  plan_seed : int;
  plan : Plan.t;
}

type report = outcome Sweep.report
(** Outcomes object-major, then backend, then seed. *)

val failures : report -> outcome list
(** Runs that tripped any gate: order, digest or WG. *)

val wg_failures : report -> outcome list
(** Runs that tripped the WG gate specifically. *)

val run : ?jobs:int -> ?on_outcome:(outcome -> unit) -> config -> report
(** The sweep ({!Sweep.run}): every object x backend x seed cell, run
    quiet. *)

val pp_report : Format.formatter -> report -> unit

val pp_report_stable : Format.formatter -> report -> unit
(** [pp_report] minus the timing line, for byte-stable comparison
    across job counts. *)
