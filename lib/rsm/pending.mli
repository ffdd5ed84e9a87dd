(** The pending set of a {!Tob} replica: the commands it knows but has
    not yet ordered ([urb_delivered \ to_deliverable] in the reduction),
    keyed by command id.

    Besides the [cid -> value] table it keeps the cids in an int
    min-heap with lazy deletion, so {!take} — "the [k] smallest pending
    cids" — costs O(k log n) instead of a sort of the whole set.  The
    heap holds every cid of the table, and may also hold stale cids
    (removed since) and duplicates (removed, then added again); {!take}
    skips both.  {!clear} empties the two together. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> int -> 'a -> unit
(** [add t cid v] binds [cid] to [v], replacing any earlier binding. *)

val remove : 'a t -> int -> unit
(** Drop [cid], if present. *)

val clear : 'a t -> unit

val length : 'a t -> int

val take : 'a t -> int -> 'a list
(** [take t k] is the values of the [k] smallest cids (all of them when
    fewer), in ascending cid order.  The set itself is unchanged: taken
    commands stay pending until a {!remove}. *)

val version : 'a t -> int
(** A counter that grows on every {!add} of a new cid, {!remove} and
    {!clear} — whenever {!length} may change. *)
