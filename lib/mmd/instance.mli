(** The Multi-budget Multi-client Distribution (MMD) problem instance.

    Mirrors the formal definition in §1.1 of Patt-Shamir & Rawitz:
    - a set of streams [0 .. num_streams-1] and users [0 .. num_users-1];
    - [m] server cost measures: stream [s] costs [server_cost s i] in
      measure [i], capped by budget [budget i] (may be [infinity]);
    - [mc] user capacity measures: stream [s] loads user [u] by
      [load u s j] in measure [j], capped by [capacity u j];
    - utilities [utility u s >= 0], with per-user utility cap
      [utility_cap u] (the bound [W_u] of §2; [infinity] when absent).

    The paper's standing assumptions are enforced by {!create}:
    [server_cost s i <= budget i] for all [s, i], and [utility u s = 0]
    whenever some load exceeds the corresponding capacity. *)

type t

(** {1 Construction} *)

val create :
  ?name:string ->
  ?mc:int ->
  server_cost:float array array ->
  budget:float array ->
  load:float array array array ->
  capacity:float array array ->
  utility:float array array ->
  utility_cap:float array ->
  unit ->
  t
(** Build and validate an instance.

    Dimensions: [server_cost] is [num_streams × m]; [budget] is [m];
    [load] is [num_users × num_streams × mc]; [capacity] is
    [num_users × mc]; [utility] is [num_users × num_streams];
    [utility_cap] is [num_users]. [mc = 0] (no user capacities) is
    allowed, in which case [load] rows are empty arrays. [mc] is
    normally inferred from the capacity rows; pass it explicitly for a
    {e catalog-only} instance (zero users) that churned-in users will
    later join with [mc]-ary loads.

    Utilities of streams that individually violate a user capacity are
    forced to [0] (the paper's assumption [w_u(S) = 0] if
    [k^u_j(S) > K^u_j]).

    [create] reads its dense input once, in O(users × streams × mc),
    and keeps each user's sparse rows ({!interesting_streams},
    {!entry_streams}); {!interested_users} is their transpose. It is
    the only step of building an engine's world that costs
    users × streams: {!restrict} and [Engine.View.of_instance] walk
    the sparse rows.

    @raise Invalid_argument on inconsistent dimensions, negative costs,
    loads, utilities, budgets or capacities, or a stream whose server
    cost exceeds a budget. *)

val restrict : ?name:string -> t -> users:int array -> budget:float array -> t
(** [restrict t ~users ~budget] is the instance over the users
    [users] (strictly ascending ids of [t]; user [v] of the result is
    user [users.(v)] of [t]) and the whole catalog, under [budget].
    A server cost above its new budget is clamped down to it, the
    clamp [Engine.View] applies on a budget shrink; the sharded engine
    builds each shard's initial world this way. [name] defaults to
    [t]'s, and [mc] is [t]'s even when [users] is empty.

    The result shares [t]'s validated per-user rows (an instance is
    immutable), so it costs O(|users| + their interests + streams × m),
    never users × streams. On every accessor it equals [create] given
    those users' rows, the clamped costs and [budget].
    @raise Invalid_argument when [budget] is not [m] non-negative
    numbers or [users] is not strictly ascending within range. *)

(** {1 Accessors} *)

val name : t -> string
val num_streams : t -> int
val num_users : t -> int

val m : t -> int
(** Number of server cost measures. *)

val mc : t -> int
(** Number of user capacity measures. *)

val server_cost : t -> int -> int -> float
(** [server_cost t s i] is [c_i(S_s)]. *)

val budget : t -> int -> float
(** [budget t i] is [B_i]. *)

val load : t -> int -> int -> int -> float
(** [load t u s j] is [k^u_j(S_s)]. *)

val capacity : t -> int -> int -> float
(** [capacity t u j] is [K^u_j]. *)

val utility : t -> int -> int -> float
(** [utility t u s] is [w_u(S_s)]. *)

val utility_cap : t -> int -> float
(** [utility_cap t u] is [W_u]. *)

val interested_users : t -> int -> int array
(** Users [u] with [utility t u s > 0], ascending. Memoized at
    {!create} time: every call returns the {e same} physical array in
    O(1), so marginal-evaluation inner loops may re-ask freely.
    Callers must treat the array as immutable. *)

val interesting_streams : t -> int -> int array
(** Streams [s] with [utility t u s > 0], ascending. Memoized at
    {!create} time like {!interested_users}; treat as immutable. *)

val entry_streams : t -> int -> int array
(** The user's {e entry} streams: [utility t u s > 0] or some
    [load t u s j <> 0], ascending — every stream a sparse copy of the
    user's row must keep, since a zero-utility stream can still carry
    loads. A superset of {!interesting_streams}. Memoized at {!create}
    time like it; treat as immutable. *)

val stream_total_utility : t -> int -> float
(** [w(S)] — sum of [utility u s] over all users. Precomputed. *)

(** {1 Derived quantities} *)

val size : t -> int
(** The input length [n] used in the paper's bounds: number of
    user–stream pairs with positive utility, plus streams and users. *)

val max_server_cost : t -> int -> float
(** [max_server_cost t i] is [max_S c_i(S)]. *)

val is_smd_shaped : t -> bool
(** True when [m = 1] and [mc <= 1] — the instance is directly an SMD
    instance (§2–3). *)

val pp : Format.formatter -> t -> unit
(** Human-readable one-line summary (name and dimensions). *)
