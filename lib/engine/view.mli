(** Mutable view of an MMD instance under churn.

    The engine plans over a fixed stream catalog but a changing user
    population and changing costs/budgets. A view holds that state in
    {e slots}: a user occupies a slot from its [User_join] until its
    [User_leave]; freed slots are reused by later joins, so the slot
    count stays proportional to the peak concurrent population. Slot
    ids are the user ids of every {!Mmd.Assignment.t} the engine
    produces.

    Two model invariants from the paper are maintained on every
    mutation, mirroring {!Mmd.Instance.create}:
    - every stream individually fits every budget — cost changes are
      clamped to the budgets, and budget shrinks clamp any
      now-oversized stream cost down with them;
    - a stream that individually violates some capacity of a user has
      its utility for that user forced to zero. *)

type t

type applied =
  | Joined of int  (** the slot the new user occupies *)
  | Left of int
  | Cost_changed of int
  | Budgets_resized

val of_instance : Mmd.Instance.t -> t
(** Every user of the instance becomes an active slot; costs and
    budgets are copied (the input instance is never mutated). *)

val copy : t -> t
(** Deep copy; mutations of either side are invisible to the other. *)

(** {1 Dimensions and accessors} *)

val name : t -> string
val num_streams : t -> int
val m : t -> int
val mc : t -> int

val num_slots : t -> int
(** Allocated slots, active or not. *)

val active_count : t -> int
val is_active : t -> int -> bool
val active_slots : t -> int list

val budget : t -> int -> float
val server_cost : t -> int -> int -> float

val utility : t -> int -> int -> float
(** [utility t slot s]; [0.] for inactive slots. *)

val load : t -> int -> int -> int -> float
val capacity : t -> int -> int -> float
val utility_cap : t -> int -> float

val interests : t -> int -> int list
(** Streams the slot's user values positively, ascending. *)

val user_spec : t -> int -> Delta.user_spec
(** The join spec that recreates an active slot's user verbatim:
    applying [User_join (user_spec t u)] to a view with the same
    catalog yields a user with identical utilities, loads, capacities
    and cap (utilities already carry this view's capacity-violation
    zeroing, which re-applying is a no-op). This is how the shard
    rebalancer moves a user between shards as an ordinary leave/join
    pair through the existing delta path.
    @raise Invalid_argument on inactive slots. *)

val interested : t -> int -> int list
(** Active slots with positive utility for the stream, ascending. *)

val iter_interested : t -> int -> (int -> unit) -> unit
(** Like {!interested} but without allocating. Ascending slot order is
    guaranteed: the planner accumulates floats over this iteration, so
    the order must be a function of the member {e set} alone — never
    of the join/leave history — or a view restored from a snapshot
    would sum in a different order than the live view it mirrors and
    crash recovery would diverge in the last ulp. *)

val version : t -> int
(** Bumped on every successful {!apply}. *)

(** {1 Planner hot-loop surface}

    The raw structure-of-arrays state backing {!iter_interested},
    {!capacity} and {!utility_cap}, exposed so the planner's marginal
    evaluation can walk contiguous arrays instead of doing per-(user,
    stream, measure) binary searches. All arrays are {e read-only} by
    contract and may be {e reallocated} by any {!apply} — re-fetch
    them after every mutation, never cache across one. *)

val inc_len : t -> int -> int
(** Number of live incidence entries for the stream — the size of
    {!interested}. Only the first [inc_len] positions of the arrays
    below are meaningful. *)

val inc_ids : t -> int -> int array
(** Interested slot ids, ascending (same order as
    {!iter_interested}). *)

val inc_w : t -> int -> float array
(** Parallel to {!inc_ids}: [inc_w t s].(i) = [utility t ids.(i) s]. *)

val inc_loads : t -> int -> float array
(** Parallel, flattened with stride [mc]:
    [inc_loads t s].(i*mc + j) = [load t ids.(i) s j]. *)

val capacity_flat : t -> float array
(** Slot-major flat capacities, stride [mc]: index [slot*mc + j].
    Rows beyond [num_slots] and rows of free slots are zero. *)

val utility_caps : t -> float array
(** Per-slot utility caps; entries beyond [num_slots] are zero. *)

val budgets : t -> float array
(** The budget vector: [budgets t].(i) = [budget t i], length [m]. *)

val cost_row : t -> int -> float array
(** The stream's server costs: [cost_row t s].(i) = [server_cost t s i],
    length [m]. *)

(** {1 Mutation} *)

val apply : t -> Delta.t -> applied
(** Apply one delta. @raise Invalid_argument on malformed deltas:
    out-of-range stream or slot ids, leaving an inactive slot, arity
    mismatches against [m]/[mc], or negative values. *)

(** {1 Conversion} *)

val materialize : t -> Mmd.Instance.t
(** Freeze the current state as an immutable instance over all
    [num_slots] users; inactive slots become zero-utility users. The
    result is always a valid instance, so any batch solver can be run
    on it for comparison. *)

val free_list : t -> int list
(** Inactive slots in the order {!apply} will reuse them (most
    recently freed first). *)

(** {1 Raw restore}

    Checkpoint-increment recovery rebuilds a view by replaying
    recorded {e final} slot states instead of the deltas that produced
    them. These primitives bypass the delta path and the free list;
    after a sequence of them the caller must install the recorded free
    order with {!set_free_raw}. Only {!Checkpoint} should use them. *)

val ensure_slots_raw : t -> int -> unit
(** Grow the slot table until [num_slots] is at least [n]; new slots
    are inactive and {e not} pushed on the free list. *)

val restore_slot : t -> int -> Delta.user_spec -> unit
(** Install a recorded spec into the slot, activating it if needed and
    replacing any current occupant. Same validation and semantics as
    a join into that slot. *)

val clear_slot_raw : t -> int -> unit
(** Deactivate and clear the slot without touching the free list.
    No-op when already inactive. *)

val set_free_raw : t -> int list -> unit
(** Install the free-slot reuse order verbatim. Must be a permutation
    of exactly the inactive slots, or @raise Invalid_argument. *)
