(** Constraint-driven shard placement, vbucket style.

    A shard map fixes how a user population is spread over [N] engine
    shards, each shard tagged with the rack (or zone, or head-end
    site) it lives on. The design follows the Couchbase vbucket map
    planner: placement is the solution to explicit constraints rather
    than a hash —

    - {b balance}: after placing [U] users, every shard holds either
      [⌊U/N⌋] or [⌊U/N⌋+1] of them;
    - {b spread}: consecutive placements land on distinct tags
      whenever the tag multiset allows it, so racks fill evenly and a
      rack failure takes out a near-minimal slice of any prefix of the
      population;
    - {b determinism}: the map is a pure function of [(seed, tags)] —
      two routers built from the same topology place identically,
      which is what makes sharded runs reproducible bit-for-bit.

    Under churn the balance constraint erodes; {!rebalance} computes
    the bounded repair: at most [k] user moves toward balance per
    epoch, each move executed by the router as an ordinary
    leave/join {!Engine.Delta} pair. *)

type t

val create : ?seed:int -> tags:string array -> unit -> t
(** [create ~tags ()] builds the map for [Array.length tags] shards,
    shard [i] living on rack [tags.(i)]. [seed] (default 0) only
    shuffles placement order {e within} a tag, so topology changes
    that keep the tag multiset intact keep the same cross-tag
    interleaving. @raise Invalid_argument on an empty topology. *)

val num_shards : t -> int
val seed : t -> int

val tag : t -> int -> string
(** The rack/zone tag of a shard. *)

val order : t -> int array
(** The placement interleave: a permutation of [0..N-1]; user rank
    [r] is dealt to shard [(order t).(r mod N)]. Fresh copy. *)

val plan : t -> users:int -> int array
(** [plan t ~users] assigns each user rank its shard by dealing
    round-robin over {!order} — the initial placement satisfying the
    balance and spread constraints by construction. *)

val route : t -> counts:int array -> int
(** Balance-preserving choice for one arriving user given the current
    per-shard populations: the first shard in interleave order with
    the minimal count. When counts are balanced this walks the same
    round-robin as {!plan}. *)

type move = { from_shard : int; to_shard : int }

val rebalance : t -> counts:int array -> k:int -> move list
(** At most [k] single-user moves from over- to under-target shards,
    pairing the largest surplus with the largest deficit first, ties
    broken by interleave position. The target is the balanced
    population for the current total: every entry is [⌊U/N⌋] or
    [⌊U/N⌋+1], and the shards currently holding the most users keep
    the extra unit (ties broken by interleave position) so the repair
    distance is minimal. Applying all
    returned moves to [counts] and calling again eventually returns
    [[]] — the fixpoint is exact balance. Deterministic. *)
