(** The one campaign skeleton.

    A campaign is a work array of cells, a deterministic cell runner
    and verdict predicates over the runner's outcomes.  This module owns
    what every campaign shares: the {!Exec.Pool} fan-out, the progress
    callback, the timing, the associative merge, the coverage fold over
    fault plans and the timing line.  Each campaign's report is
    [outcome report]; its failure lists and counters are folds over
    [outcomes], so merging two reports only has to concatenate. *)

type 'o report = {
  runs : int;
  outcomes : 'o list;  (** in work order, at every job count *)
  cpu_seconds : float;
      (** process CPU, summed across worker domains under [jobs > 1] *)
  wall_seconds : float;  (** elapsed wall-clock time for the sweep *)
  runs_per_sec : float;  (** [runs / wall_seconds] (0 when no time passed) *)
}

val run :
  ?jobs:int ->
  ?on_outcome:('o -> unit) ->
  cells:'c list ->
  first_seed:int ->
  plans:int ->
  ('c -> seed:int -> 'o) ->
  'o report
(** [run ~cells ~first_seed ~plans one] runs [one] over every cell x
    seed pair, cell-major, seeds [first_seed .. first_seed+plans-1], on
    [jobs] (default 1) domains.  Every pair is an isolated simulation
    keyed by its seed, so the outcomes, in work order, are identical at
    every job count; only the timing differs.  A pair that raises fails
    the sweep with {!Exec.Pool.Worker_error} naming its seed.
    [on_outcome] observes each outcome as it completes (progress
    reporting): under [jobs > 1] the order is nondeterministic, though
    calls never interleave. *)

val merge : 'o report -> 'o report -> 'o report
(** Associative and order-preserving: outcomes concatenate in argument
    order, [cpu_seconds] adds, [wall_seconds] takes the max (parallel
    chunks overlap) and [runs_per_sec] is recomputed from the sums.
    Merging the reports of consecutive work ranges rebuilds the report
    of the whole range, modulo timing. *)

val failures : ('o -> bool) -> 'o report -> 'o list
(** [failures ok r]: the outcomes the verdict [ok] rejects, in work
    order. *)

val faults_injected : ('o -> Plan.t list) -> 'o report -> int
(** Plan actions across every outcome's plans. *)

val coverage : ('o -> Plan.t list) -> 'o report -> (string * int) list
(** Injected actions by kind, in {!Plan.kinds} order. *)

val pp_faults :
  string -> ('o -> Plan.t list) -> Format.formatter -> 'o report -> unit
(** [pp_faults name plans_of] prints the first two lines of a fault
    campaign's stable report: [name campaign: R runs, F faults injected]
    and the coverage line. *)

val pp_timing : Format.formatter -> 'o report -> unit
(** The one line that carries timing.  A campaign's [pp_report] is its
    [pp_report_stable] followed by this line. *)
