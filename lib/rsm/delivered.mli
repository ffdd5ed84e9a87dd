(** The delivered set of a {!Tob} replica: the command ids it has
    applied, which de-duplicate re-submitted commands and form the
    delivered-set part of a snapshot.

    Besides the membership table it keeps the same cids in append-only
    chunks that are frozen once full, so {!capture} is O(1): the
    snapshot holds on to the frozen chunks as they are (plus a copy of
    the short unfrozen tail), and sorts them only when somebody reads
    the snapshot.  {!add} and {!reset} update table and chunks
    together. *)

type t

val create : unit -> t

val mem : t -> int -> bool

val add : t -> int -> unit
(** Record a delivered cid; no-op if it is already a member. *)

val reset : t -> int list -> unit
(** Make the set exactly [cids] — what a replica holds after it installs
    a snapshot or recovers from its disk. *)

val capture : t -> int list Lazy.t
(** The set as it is now, in ascending order.  Capturing is O(1); the
    sort runs when the result is first forced, and later {!add}s and
    {!reset}s do not reach it. *)
