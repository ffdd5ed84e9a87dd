(** Total-order broadcast over the slot log — the reduction of
    SNIPPETS.md snippet 3 (TO-broadcast from a sequence of consensus
    instances), with batching.

    Each replica keeps the reduction's three pieces of state: the set of
    commands it knows but has not yet ordered ([urb_delivered \
    to_deliverable] — here the {e pending} set), the growing decided
    sequence (realised through the [deliver] callback), and its slot
    counter.  When a replica has pending commands it opens the next slot
    with a batch of up to [batch] of them; every other live replica
    joins the slot (with its own pending batch, possibly empty), the
    {!Log} decides a winner, and all replicas append the winning batch —
    skipping commands they already delivered, so a command that rides in
    several proposals is still applied exactly once.

    A proposal's batch is always the [batch] {e smallest} pending command
    ids, in ascending order — not arrival order, so replicas holding the
    same pending set propose the same batch.  {!Pending} keeps that
    order incrementally.

    Command dissemination is a plain best-effort broadcast; the
    consensus object restores uniformity (a decided batch reaches every
    live replica through the log even when the original broadcast was
    cut short by the sender's crash). *)

type 'cmd entry = { cid : int; op : 'cmd }
(** A uniquely identified command ([cid] de-duplicates re-submissions). *)

type recovery = {
  next_slot : int;  (** first slot not covered by the durable state *)
  delivered_cids : int list;  (** commands the durable state contains *)
}
(** What a replica's stable storage reproduced after a crash; see
    {!restart}. *)

type 'cmd t

val create :
  engine:Dsim.Engine.t ->
  net:'cmd entry Netsim.Async_net.t ->
  log:'cmd entry Log.t ->
  batch:int ->
  deliver:(pid:int -> slot:int -> 'cmd entry -> unit) ->
  ?on_slot_applied:(pid:int -> slot:int -> fresh:'cmd entry list -> unit) ->
  ?on_install:
    (pid:int ->
    owner:int ->
    upto:int ->
    state:string Lazy.t ->
    cids:int list Lazy.t ->
    unit) ->
  unit ->
  'cmd t
(** Install delivery handlers and spawn one replica process per network
    node.  [batch] caps entries per proposal (>= 1).  [deliver] runs in
    simulation context each time a replica to-delivers an entry — in
    identical order across replicas, which {!Checker} verifies.

    [on_slot_applied] fires after a replica finishes a slot (even an
    empty one), with the entries it freshly applied there — the hook the
    durable runner uses to write and fsync WAL records at slot
    granularity.  [on_install] fires when a replica adopts a snapshot
    from the log's state-transfer floor (see {!Log.set_floor}) instead
    of replaying slots; the receiver must restore the app state from
    [state], which forces it. *)

val submit : 'cmd t -> replica:int -> 'cmd entry -> bool
(** Inject a command at [replica] (the client RPC): [false] if that
    replica has crashed, otherwise the entry joins its pending set and
    is broadcast to the others.  Safe to re-submit the same [cid]
    through any replica; duplicates are suppressed at delivery. *)

val process : 'cmd t -> int -> Dsim.Engine.pid
(** The engine process driving the given replica (kill it on crash). *)

val crash : 'cmd t -> int -> unit
(** Drop the replica's pending (undelivered) command set — what a real
    crash loses at the TOB layer.  The durable runner calls this when it
    crashes a replica; the legacy in-memory model does not. *)

val restart : 'cmd t -> ?recovery:recovery -> int -> unit
(** Respawn the replica loop after its process was killed.  Without
    [recovery] this is the recoverable (intact-memory) model: the
    replica resumes at its pre-crash slot counter and catches up from
    the log's cached decisions.  With [recovery] the replica's delivered
    set, count and slot counter are reset to exactly what stable storage
    reproduced — the honest model — before the loop resumes and catches
    up.  No-op while the process is alive. *)

val delivered_count : 'cmd t -> pid:int -> int

val capture_delivered : 'cmd t -> pid:int -> int list Lazy.t
(** The command ids the replica has applied, ascending — the
    delivered-set part of a snapshot payload.  O(1): see
    {!Delivered.capture}. *)

val next_slot : 'cmd t -> pid:int -> int
val is_delivered : 'cmd t -> cid:int -> bool
(** Has {e some} replica to-delivered this command? (the client's ack) *)

val pending_count : 'cmd t -> pid:int -> int

val stop : 'cmd t -> unit
(** Ask replica loops to exit once idle, so a drained run ends in
    engine quiescence rather than a parked-forever await. *)
