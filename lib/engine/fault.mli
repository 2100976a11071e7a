(** Deterministic, seeded fault injection for the engine.

    A fault {e schedule} pins faults to delta boundaries: fault [f]
    with [at = i] fires after the [i]-th delta of the run has been
    applied (boundary 0 is "before the first delta"). Schedules are
    generated from a {!Prelude.Rng.t}, so a chaos run is reproducible
    bit-for-bit from its seed — the property the crash-recovery tests
    are built on.

    Fault kinds and the layer each one attacks:
    - [Corrupt_log] — flip a byte of a WAL record
      ({!Wal.recover_string} must quarantine it);
    - [Torn_snapshot] — truncate a snapshot document, simulating a
      crash mid-write ({!Snapshot} must fall back to the previous
      generation);
    - [Budget_shock f] — shrink every finite budget by factor [f],
      leaving the current plan over budget ({!Controller.absorb_shock}
      must evict back to feasibility);
    - [Stream_outage s] — stream [s]'s transmission cost jumps to the
      full budget on every measure (a dead ingest path priced out of
      the plan);
    - [Task_exn] — an exception thrown from inside a pool task during
      a replan attempt (the supervisor must contain and retry it).

    Replication faults (handled by {!Replica.Chaos}; replica ids name
    followers — the initial primary is replica 0, followers 1..N):
    - [Drop_frame r] — the next frame shipped to follower [r] vanishes
      (the retransmit path must heal the gap);
    - [Dup_frame r] — the next frame is delivered twice (the follower
      must detect the duplicate seq and apply once);
    - [Reorder_frames r] — the next two frames arrive swapped (the
      follower must buffer and apply in seq order);
    - [Truncate_frame r] — the next frame is cut mid-record (the CRC
      must reject it; retransmit heals);
    - [Follower_crash r] — follower [r] dies and later rebuilds by
      scratch-replaying the shipped history;
    - [Primary_crash] — the primary dies; heartbeat timeout fires and
      the most-caught-up follower is promoted;
    - [Heartbeat_partition n] — heartbeats are suppressed for [n] idle
      ticks (a short partition must ride out on backoff without a
      failover; a long one must promote).

    Network faults (PR 9; attack the link itself, and fire identically
    on the in-process queue and the socket backend):
    - [Hold_frames (r, n)] — follower [r]'s next frame is delayed past
      the next [n] sends (a long reorder — the follower must buffer
      around the gap);
    - [Link_partition (r, n)] — follower [r]'s link buffers everything
      for [n] sends, then delivers in order (delay, not loss);
    - [Link_reset r] — follower [r]'s connection drops abortively,
      losing everything in flight (the socket backend reconnects;
      retransmit heals);
    - [Hand_over] — a planned lease-based failover to the
      most-caught-up follower (must lose nothing and diverge
      nothing). *)

type kind =
  | Corrupt_log
  | Torn_snapshot
  | Budget_shock of float  (** factor in (0, 1) applied to finite budgets *)
  | Stream_outage of int  (** stream id (taken mod the catalog size) *)
  | Task_exn
  | Drop_frame of int  (** follower id whose next frame is dropped *)
  | Dup_frame of int  (** follower id whose next frame is duplicated *)
  | Reorder_frames of int  (** follower id whose next two frames swap *)
  | Truncate_frame of int  (** follower id whose next frame is torn *)
  | Follower_crash of int  (** follower id that dies *)
  | Primary_crash
  | Heartbeat_partition of int  (** idle ticks the partition lasts *)
  | Hold_frames of int * int  (** follower id, sends to delay past *)
  | Link_partition of int * int  (** follower id, sends until heal *)
  | Link_reset of int  (** follower id whose connection drops *)
  | Hand_over  (** planned lease-based failover *)

type event = { at : int; kind : kind }

type schedule = event list
(** Sorted by [at], ascending; several faults may share a boundary. *)

exception Injected of string
(** The exception {!raise_in_pool} throws (from inside a pool task). *)

val kind_to_string : kind -> string

val generate :
  rng:Prelude.Rng.t -> deltas:int -> num_streams:int -> count:int -> schedule
(** [count] faults at uniform boundaries in [[1, deltas]], kinds drawn
    uniformly; shock factors uniform in [[0.3, 0.8]], outage streams
    uniform over the catalog. Draws only the original five kinds, so
    seeded schedules from earlier engines replay unchanged. *)

val generate_replication :
  rng:Prelude.Rng.t -> deltas:int -> replicas:int -> count:int -> schedule
(** [count] replication faults at uniform boundaries: kinds drawn
    uniformly over the seven replication kinds, target followers
    uniform in [[1, replicas]], partition lengths uniform in
    [[5, 64]] ticks. Draws only the original seven kinds, so seeded
    E19 schedules replay unchanged. *)

val generate_network :
  rng:Prelude.Rng.t -> deltas:int -> replicas:int -> count:int -> schedule
(** Like {!generate_replication} but over the full eleven-kind
    network-era vocabulary: the seven replication kinds plus
    [Hold_frames] (delay 1–8 sends), [Link_partition] (1–16 sends),
    [Link_reset] and [Hand_over]. *)

val at : schedule -> int -> event list
(** Faults scheduled at boundary [i], in schedule order. *)

val shock_delta : View.t -> kind -> Delta.t option
(** Materialize [Budget_shock]/[Stream_outage] as a concrete delta
    against the current view (so it can be WAL-logged and replayed
    like ordinary churn); [None] for the other kinds. *)

val corrupt_text : rng:Prelude.Rng.t -> string -> string
(** Flip one non-newline byte after the first line (the magic line is
    left intact — a corrupted magic is a different failure class). The
    input is returned unchanged when it has no such byte. *)

val tear_text : rng:Prelude.Rng.t -> string -> string
(** Truncate at a uniform position strictly inside the text,
    simulating a torn write. *)

val raise_in_pool : unit -> unit
(** Run a parallel region in which one task raises {!Injected}; the
    pool's exception capture re-raises it here. Used to inject
    [Task_exn] faults into replan attempts. *)
