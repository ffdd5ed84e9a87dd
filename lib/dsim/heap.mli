(** An array-backed binary min-heap, specialized for the event queue.

    Elements are ordered by an integer key (the virtual timestamp) with a
    monotonically increasing sequence number as a tiebreaker, so two events
    scheduled for the same instant fire in insertion order — a requirement
    for deterministic simulation.

    The storage is struct-of-arrays (parallel [keys]/[seqs]/[vals]
    arrays); [add] and [pop_value] allocate nothing once the arrays are
    warm.  The sift order is bit-identical to the classic boxed-entry
    implementation, so the tie sets the choice oracle observes (through
    {!pop_tied}) are unchanged. *)

type t

val create : unit -> t
(** An empty heap. *)

val length : t -> int
(** Number of queued elements. *)

val is_empty : t -> bool

val add : t -> key:int -> int -> unit
(** [add t ~key v] inserts [v] with priority [key]. Insertion order breaks
    ties. *)

val pop : t -> (int * int) option
(** Remove and return the minimum-key element, or [None] when empty. *)

val pop_value : t -> int
(** Zero-allocation {!pop}: remove and return just the minimum element's
    payload.  The caller must know the heap is non-empty (check
    {!is_empty}) and can read the key beforehand with {!peek_key_fast}. *)

val peek_key : t -> int option
(** The smallest key currently queued, without removing it. *)

val peek_key_fast : t -> int
(** Unchecked {!peek_key}: the smallest key, assuming the heap is
    non-empty.  Undefined (may raise [Invalid_argument]) when empty. *)

val last_seq : t -> int
(** The sequence number assigned by the most recent {!add} (-1 before
    the first add or after {!clear}). *)

val pop_tied : t -> (seqs:int array -> vals:int array -> int) -> (int * int) option
(** [pop_tied t choose] hands [choose] the elements tied for the
    smallest key, in insertion (seq) order — the order {!pop} would
    surface them — as their insertion sequence numbers and their
    payloads (positionally parallel), then removes and returns the
    [choose]-th of them (0-based) as [(key, value)].  An answer of 0 is
    {!pop}.  [None], without calling [choose], when the heap is empty.
    Seqs are assigned densely from 0 by {!add} (reset by {!clear}), so
    they give each queued element a stable identity a schedule explorer
    can track across choices.  O(ties log ties), not O(size).
    @raise Invalid_argument ["Heap.pop_tied: index out of tied range"]
    when the answer is negative or not below the number of tied
    elements; the heap is then unchanged. *)

val clear : t -> unit
(** Drop all elements and reset the tiebreak sequence, keeping the
    backing storage for reuse — a cleared heap is observationally a
    fresh one, without the regrowth ramp. *)
