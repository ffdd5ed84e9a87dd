(** A simulated per-replica disk with write-ahead-log semantics.

    The model separates three regions:
    - the {b unsynced buffer}: records appended but not yet fsynced;
    - the {b syncing region}: records handed to an in-flight (stalled)
      fsync that has not completed yet;
    - the {b durable region}: records a completed fsync has hardened.

    {!crash} drops the first two — lose-unsynced-tail — and invalidates
    in-flight fsyncs.  {!read_back} returns the durable records in
    append order, stopping at the first torn record.  All fault
    behaviour (torn writes, lying fsyncs, IO errors, stalls) comes from
    the {!Policy.t} thunk consulted at operation time, so behaviour is a
    pure function of [(pid, virtual time)] and runs replay
    deterministically.

    fsync durability is signalled through a continuation [k] rather
    than by blocking, because disk users (network and timer handlers)
    cannot suspend: [k] runs when the batch is actually durable —
    immediately if there is no stall window, [extra] virtual time later
    if there is one, and never if the disk crashes first. *)

type record = {
  seq : int;  (** monotonically increasing append sequence number *)
  appended_at : int;  (** virtual time of the append *)
  data : string;
  torn : bool;  (** written inside a torn-write window *)
}

type snapshot = {
  upto : int;
  taken_at : int;
  payload : string Lazy.t;
      (** the encoded snapshot.  A writer hands over a suspension built
          from values that can no longer change (see DESIGN §9), so
          taking a snapshot costs O(1) and the bytes are only produced
          when a reader — recovery, state transfer, {!pp_snapshot} —
          forces them.  Forcing yields exactly what an eager encoding
          at {!save_snapshot} time would have written. *)
}

type stats = {
  appends : int;
  fsyncs : int;
  io_errors : int;
  torn_records : int;
  lost_records : int;  (** dropped by crashes (unsynced tail) *)
  sync_lost_records : int;  (** dropped by lying fsyncs *)
  snapshots_taken : int;
  compacted_records : int;
  bytes_appended : int;
  stalled_time : int;  (** total extra virtual time spent in stalls *)
}

type t

val create :
  engine:Dsim.Engine.t -> pid:int -> ?policy:(unit -> Policy.t) -> unit -> t
(** [policy] is a thunk so the active fault policy can be swapped
    mid-run (the nemesis interpreter does exactly that). Default: the
    honest disk, {!Policy.none}. *)

val pid : t -> int

val epoch : t -> int
(** Crash counter. An operation scheduled before a crash can detect the
    crash by comparing epochs. *)

val io_erroring : t -> bool
(** True while an io-error window is open for this disk: appends and
    fsyncs will fail. Lets callers avoid mutating in-memory state they
    cannot persist. *)

val append : t -> string -> (int, [ `Io_error ]) result
(** Buffered append; returns the record's [seq]. Not durable until a
    subsequent {!fsync} completes. *)

val fsync : t -> k:(unit -> unit) -> (unit, [ `Io_error ]) result
(** Harden everything appended so far. [Ok ()] means the fsync was
    {e accepted}; [k] fires when the data is durable (possibly later,
    under a stall; never, if the disk crashes first or a sync-loss
    window silently dropped the batch — in the latter case [k] still
    fires, because the disk lies). *)

val crash : t -> unit
(** Lose the unsynced tail and any batches still in-flight; bump
    {!epoch} so stale fsync completions are discarded. Durable records
    and installed snapshots survive. *)

val read_back : t -> record list
(** Durable records in append order, stopping before the first torn
    record (a torn write corrupts the log from that point on). *)

val records : t -> record list
(** All durable records in append order, torn ones included — for
    inspection/dump, not for recovery. *)

val unsynced_count : t -> int

val save_snapshot :
  t ->
  upto:int ->
  string Lazy.t ->
  k:(unit -> unit) ->
  (unit, [ `Io_error ]) result
(** Write a snapshot covering state up to slot/index [upto]. The payload
    is not forced here: it must be a suspension over immutable values.
    Modeled as
    write-to-side-file + atomic rename: immune to torn writes and sync
    lies, but a crash before the (possibly stalled) install drops it.
    [k] fires once the snapshot is installed. *)

val snapshots : t -> snapshot list
(** Installed snapshots, oldest first. *)

val latest_snapshot : t -> snapshot option

val compact : t -> upto_seq:int -> unit
(** Drop durable records with [seq <= upto_seq]. Callers must only
    compact records covered by an installed snapshot. *)

val stats : t -> stats
val pp_record : Format.formatter -> record -> unit
val pp_snapshot : Format.formatter -> snapshot -> unit
val pp_stats : Format.formatter -> stats -> unit
